"""Tests for the walker engine: update rules, shift control, statistics.

Statistical oracles are binomial moments; dynamical oracles are dense
linear-algebra results computed in the tests themselves."""

import warnings

import numpy as np
import pytest

from qcfciqmc.exactdiag import number_sector_indices
from qcfciqmc.fciqmc import (
    ExtinctionError,
    FciqmcError,
    RunConfig,
    ShiftController,
    Statistics,
    Trajectory,
    TrajectoryRecord,
    WalkerPopulation,
    annihilate,
    blocking_analysis,
    death_clone_step,
    mixed_energy,
    run,
    spawn_step,
    statistics,
    summary_record,
    trajectory_from_csv,
    trajectory_to_csv,
    update_shift,
)
import qcfciqmc.matelem as matelem
from qcfciqmc.matelem import ElementSource, ExactBackend, SampledBackend, get_element, signed_row
from qcfciqmc.operators import (
    HubbardSpec,
    PauliSum,
    PauliTerm,
    PauliWord,
    build_hubbard,
    jordan_wigner,
    to_dense,
)
from qcfciqmc.simulator import Circuit, PauliRotation


def rng_for(step):
    ss = np.random.SeedSequence(entropy=42, spawn_key=(step,))
    return np.random.Generator(np.random.Philox(ss))


def x_source(coeff, n_qubits=1):
    h = PauliSum([PauliTerm(coeff, PauliWord(n_qubits, 1, 0))])
    return ElementSource(h, Circuit(n_qubits, []))


def diag_source(values):
    """Diagonal Hamiltonian with the given first entries via Z/I combinations."""
    n_qubits = 1
    h = PauliSum([
        PauliTerm(0.5 * (values[0] + values[1]), PauliWord(n_qubits, 0, 0)),
        PauliTerm(0.5 * (values[0] - values[1]), PauliWord(n_qubits, 0, 1)),
    ])
    return ElementSource(h, Circuit(n_qubits, []))


# ---------------------------------------------------------------------------
# population container
# ---------------------------------------------------------------------------


def test_population_drops_zero_entries():
    pop = WalkerPopulation({3: 0, 5: -2, 1: 4})
    assert pop.counts == {5: -2, 1: 4}
    assert pop.total_walkers == 6
    assert pop.n_occupied == 2
    assert pop.occupied() == [1, 5]


# ---------------------------------------------------------------------------
# spawning
# ---------------------------------------------------------------------------


def test_spawn_probability_small_p():
    """p = |H_ji| dt = 0.005; children over 1e4 parents within 3 sigma."""
    src = x_source(0.5)
    pop = WalkerPopulation.single(0, 10**4)
    spawned = spawn_step(pop, src, 0.01, rng_for(0))
    mean = 10**4 * 0.005
    sigma = np.sqrt(10**4 * 0.005 * 0.995)
    assert abs(abs(spawned[1]) - mean) < 3 * sigma


def test_spawn_nothing_for_diagonal_h():
    src = diag_source([0.3, -0.8])
    pop = WalkerPopulation.single(0, 500)
    assert spawn_step(pop, src, 0.1, rng_for(1)) == {}


def test_spawn_integer_plus_bernoulli():
    """p = 2.3 from one parent: count in {2, 3} with mean 2.3 over seeded trials."""
    src = x_source(2.3)
    pop = WalkerPopulation.single(0, 1)
    counts = []
    for step in range(10**4):
        spawned = spawn_step(pop, src, 1.0, rng_for(step))
        counts.append(abs(spawned[1]))
    counts = np.asarray(counts)
    assert set(np.unique(counts)) <= {2, 3}
    se = np.sqrt(0.3 * 0.7 / len(counts))
    assert abs(counts.mean() - 2.3) < 3 * se


def test_spawn_sign_convention():
    """Positive H_ji spawns opposite-sign children (projector carries -H_ji)."""
    plus = x_source(0.8)
    spawned = spawn_step(WalkerPopulation.single(0, 2000), plus, 0.5, rng_for(3))
    assert spawned[1] < 0
    minus = x_source(-0.8)
    spawned = spawn_step(WalkerPopulation.single(0, 2000), minus, 0.5, rng_for(3))
    assert spawned[1] > 0
    # negative parents flip both
    spawned = spawn_step(WalkerPopulation({0: -2000}), plus, 0.5, rng_for(3))
    assert spawned[1] > 0


# ---------------------------------------------------------------------------
# death / cloning
# ---------------------------------------------------------------------------


def test_death_noop_at_shift_equal_diagonal():
    src = diag_source([0.7, 0.0])
    pop = WalkerPopulation.single(0, 1234)
    out = death_clone_step(pop, src, 0.7, 0.05, rng_for(4))
    assert out.counts == {0: 1234}


def test_death_certain_at_probability_one():
    src = diag_source([2.0, 0.0])
    pop = WalkerPopulation.single(0, 999)
    out = death_clone_step(pop, src, 0.0, 0.5, rng_for(5))  # (2-0)*0.5 = 1
    assert out.counts == {}


def test_clone_growth_statistics():
    """(H_ii - S) dt = -0.2 on 1e5 walkers: growth factor 1.2 within 3 sigma."""
    src = diag_source([-0.2, 0.0])
    pop = WalkerPopulation.single(0, 10**5)
    out = death_clone_step(pop, src, 0.0, 1.0, rng_for(6))
    mean = 10**5 * 1.2
    sigma = np.sqrt(10**5 * 0.2 * 0.8)
    assert abs(out.counts[0] - mean) < 3 * sigma


def test_death_never_flips_sign():
    src = diag_source([5.0, 0.0])
    pop = WalkerPopulation({0: -50})
    out = death_clone_step(pop, src, 0.0, 0.19, rng_for(7))
    assert out.counts.get(0, 0) <= 0


def test_death_clamps_and_warns():
    src = diag_source([4.0, 0.0])
    pop = WalkerPopulation.single(0, 100)
    with pytest.warns(UserWarning, match="clamped"):
        out = death_clone_step(pop, src, 0.0, 0.5, rng_for(8))  # d = 2 -> 1
    assert out.counts == {}


# ---------------------------------------------------------------------------
# annihilation
# ---------------------------------------------------------------------------


def test_annihilate_exact_cancellation():
    out = annihilate(WalkerPopulation({4: 3}), {4: -3})
    assert out.counts == {}


def test_annihilate_partial():
    out = annihilate(WalkerPopulation({4: 5}), {4: -2})
    assert out.counts == {4: 3}


def test_annihilate_disjoint_union():
    out = annihilate(WalkerPopulation({1: 2, 3: -1}), {0: 7})
    assert out.counts == {1: 2, 3: -1, 0: 7}


# ---------------------------------------------------------------------------
# shift control
# ---------------------------------------------------------------------------


def test_update_shift_no_change_for_stable_population():
    ctl = ShiftController(shift=-1.0, damping=0.1, update_interval=2)
    assert update_shift(ctl, 800, 800, 0.5) == -1.0


def test_update_shift_log_decrease():
    """n_now = e * n_prev with zeta/(A dt) = 0.1 lowers the shift by 0.1."""
    ctl = ShiftController(shift=0.0, damping=0.1, update_interval=4)
    n_prev = 10**6
    n_now = int(round(np.e * n_prev))
    new = update_shift(ctl, n_now, n_prev, 0.25)  # A * dt = 1
    assert new == pytest.approx(-0.1, abs=1e-6)


def test_update_shift_extinct_population_raises():
    ctl = ShiftController(shift=0.0)
    with pytest.raises(ExtinctionError):
        update_shift(ctl, 100, 0, 0.1)


def test_controller_activates_once_and_stays_active():
    ctl = ShiftController(shift=0.0, threshold=100, update_interval=5)
    ctl.observe(1, 50, 1e-3)
    assert not ctl.active
    ctl.observe(2, 150, 1e-3)
    assert ctl.active
    ctl.observe(3, 10, 1e-3)  # population can dip; control stays on
    assert ctl.active


def test_controller_updates_only_on_interval():
    ctl = ShiftController(shift=0.0, threshold=10, update_interval=5)
    ctl.observe(7, 20, 1e-3)  # activates, anchors at step 7
    s_before = ctl.shift
    for step in range(8, 12):
        ctl.observe(step, 40, 1e-3)
        assert ctl.shift == s_before
    ctl.observe(12, 40, 1e-3)  # step 12 = anchor + 5
    assert ctl.shift != s_before


# ---------------------------------------------------------------------------
# mixed energy
# ---------------------------------------------------------------------------


def test_mixed_energy_reference_only():
    src = x_source(0.5)
    pop = WalkerPopulation.single(0, 77)
    assert mixed_energy(pop, src, 0) == pytest.approx(0.0, abs=1e-12)


def test_mixed_energy_missing_when_reference_empty():
    src = x_source(0.5)
    pop = WalkerPopulation.single(1, 10)
    assert mixed_energy(pop, src, 0) is None


def test_mixed_energy_exact_on_ground_state_populations():
    """Integer-rounded ground-state amplitudes give ED energy up to rounding."""
    spec = HubbardSpec(shape=(1, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    dense = to_dense(h).real
    sector = number_sector_indices(spec.n_qubits, n_up=1, n_dn=1)
    sub = dense[np.ix_(sector, sector)]
    vals, vecs = np.linalg.eigh(sub)
    ground = vecs[:, 0]
    ref_pos = int(np.argmax(np.abs(ground)))
    scale = 10**6
    counts = {int(sector[k]): int(round(scale * ground[k] / ground[ref_pos]))
              for k in range(len(sector))}
    pop = WalkerPopulation(counts)
    src = ElementSource(h, Circuit(spec.n_qubits, []))
    e = mixed_energy(pop, src, int(sector[ref_pos]))
    assert e == pytest.approx(vals[0], abs=1e-4)


def test_mixed_energy_diagonalizing_basis():
    """U that diagonalizes H: no connections, E fixed at the ground energy."""
    h = PauliSum([PauliTerm(0.7, PauliWord(1, 1, 0))])  # 0.7 X
    # exp(-i pi/4 Y) sends X to +Z, so basis state 1 carries the -0.7 eigenvector
    u = Circuit(1, [PauliRotation(PauliWord(1, 1, 1), angle=np.pi / 2)])
    src = ElementSource(h, u)
    # basis state 1 maps onto the -0.7 eigenvector
    from qcfciqmc.matelem import signed_row

    assert signed_row(src, 1) == []
    pop = WalkerPopulation.single(1, 40)
    assert mixed_energy(pop, src, 1) == pytest.approx(-0.7, abs=1e-10)


# ---------------------------------------------------------------------------
# one-step propagator fidelity
# ---------------------------------------------------------------------------


def test_single_step_expectation_matches_linear_propagator():
    """Mean population change over seeded steps tracks c - dt (H' - S) c."""
    h = PauliSum([
        PauliTerm(0.4, PauliWord(2, 0b01, 0)),
        PauliTerm(-0.3, PauliWord(2, 0b10, 0b10)),
        PauliTerm(0.25, PauliWord(2, 0, 0b01)),
        PauliTerm(0.6, PauliWord(2, 0b11, 0b11)),
    ])
    src = ElementSource(h, Circuit(2, []))
    hd = to_dense(h).real
    shift = -0.1
    dt = 0.05
    c0 = np.array([300, -150, 80, 0], dtype=float)
    pop0 = WalkerPopulation({i: int(c0[i]) for i in range(4)})
    n_trials = 20000
    acc = np.zeros(4)
    for step in range(n_trials):
        rng = rng_for(step)
        spawned = spawn_step(pop0, src, dt, rng)
        survivors = death_clone_step(pop0, src, shift, dt, rng)
        new = annihilate(survivors, spawned)
        for i in range(4):
            acc[i] += new.counts.get(i, 0)
    mean = acc / n_trials
    expected = c0 - dt * (hd - shift * np.eye(4)) @ c0
    # per-component sigma bounded by binomial variances of each contribution
    for i in range(4):
        var = 0.0
        p_d = abs((hd[i, i] - shift) * dt)
        var += abs(c0[i]) * p_d * (1 - p_d)
        for j in range(4):
            if j != i:
                p_s = abs(hd[i, j]) * dt
                var += abs(c0[j]) * p_s * (1 - p_s)
        sigma = np.sqrt(max(var, 1e-12) / n_trials)
        assert abs(mean[i] - expected[i]) < 4 * sigma + 1e-9


def test_identity_basis_matches_classical_probabilities():
    """One spawn attempt per connection with p = |H_ji| dt, hand-checked."""
    h = PauliSum([PauliTerm(0.4, PauliWord(2, 0b01, 0)), PauliTerm(0.2, PauliWord(2, 0b10, 0))])
    src = ElementSource(h, Circuit(2, []))
    dt = 0.25
    pop = WalkerPopulation.single(0, 1)
    hits = {1: 0, 2: 0}
    n_trials = 40000
    for step in range(n_trials):
        spawned = spawn_step(pop, src, dt, rng_for(step))
        for j in hits:
            if spawned.get(j):
                hits[j] += 1
    for j, coeff in ((1, 0.4), (2, 0.2)):
        p = coeff * dt
        se = np.sqrt(p * (1 - p) / n_trials)
        assert abs(hits[j] / n_trials - p) < 4 * se


# ---------------------------------------------------------------------------
# stream order: the array engine against the per-parent loop it replaced
# ---------------------------------------------------------------------------


def spawn_step_oracle(pop, src, delta_tau, rng):
    """One binomial call per occupied parent, children summed in a dict."""
    spawned = {}
    for i in pop.occupied():
        c_i = pop.counts[i]
        row = signed_row(src, i)
        if not row:
            continue
        vals = np.array([v for (_, v) in row])
        p = np.abs(vals) * delta_tau
        base = np.floor(p)
        counts = abs(c_i) * base.astype(np.int64) + rng.binomial(abs(c_i), p - base)
        for (j, v), n_children in zip(row, counts):
            if n_children:
                child = (1 if c_i > 0 else -1) * (-1 if v > 0 else 1) * int(n_children)
                spawned[j] = spawned.get(j, 0) + child
    return {j: c for j, c in spawned.items() if c != 0}


def death_clone_oracle(pop, src, shift, delta_tau, rng):
    """Survivor counts from per-index diagonal reads, as a dict."""
    occ = pop.occupied()
    signed = np.array([pop.counts[i] for i in occ], dtype=np.int64)
    d = np.array([(get_element(src, i, i) - shift) * delta_tau for i in occ])
    d = np.clip(d, -1.0, 1.0)
    flips = rng.binomial(np.abs(signed), np.abs(d))
    n_new = np.where(d > 0, np.abs(signed) - flips, np.abs(signed) + flips)
    return {i: int(n) * (1 if c > 0 else -1) for i, c, n in zip(occ, signed, n_new) if n}


def hubbard_2x2_sources(backend):
    """Two fresh sources on the same 2x2 Hubbard H', seed and backend: the
    identity basis on the exact backend, a layered basis on the sampled one."""
    from qcfciqmc.vqa import hubbard_hv_generator_groups, layered_ansatz

    spec = HubbardSpec(shape=(2, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    sector = number_sector_indices(8, n_up=2, n_dn=2)
    if isinstance(backend, ExactBackend):
        circuit, params = Circuit(8, []), ()
    else:
        circuit = layered_ansatz(hubbard_hv_generator_groups(spec), 1, int(sector[0]), 8)
        params = 0.3 * np.random.default_rng(3).standard_normal(circuit.n_slots)
    return sector, [ElementSource(h, circuit, params, backend=backend, seed=5) for _ in range(2)]


@pytest.mark.filterwarnings("ignore:death/clone probability")
@pytest.mark.parametrize("backend", [
    ExactBackend(),
    SampledBackend(shots_magnitude=10**4, shots_sign=10**3),
])
def test_engine_consumes_the_stream_as_the_per_parent_loop(backend):
    """Same children, survivors and final stream state as the per-parent loop,
    on random populations with small and large counts and with p above 1."""
    sector, (src_new, src_oracle) = hubbard_2x2_sources(backend)
    pick = np.random.default_rng(17)
    for trial in range(12):
        occ = pick.choice(sector, size=int(pick.integers(1, len(sector) + 1)), replace=False)
        counts = pick.integers(1, 3000, size=len(occ)) * pick.choice([-1, 1], size=len(occ))
        pop = WalkerPopulation(dict(zip(occ.tolist(), counts.tolist())))
        dt = float(pick.choice([0.003, 0.05, 0.7, 1.3]))
        shift = float(pick.normal())
        rng_new, rng_oracle = rng_for(trial), rng_for(trial)
        spawned = spawn_step(pop, src_new, dt, rng_new)
        survivors = death_clone_step(pop, src_new, shift, dt, rng_new)
        assert spawned == spawn_step_oracle(pop, src_oracle, dt, rng_oracle)
        assert survivors.counts == death_clone_oracle(pop, src_oracle, shift, dt, rng_oracle)
        np.testing.assert_equal(rng_new.bit_generator.state, rng_oracle.bit_generator.state)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def hubbard_1x2_source():
    spec = HubbardSpec(shape=(1, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    return spec, h


def test_run_zero_time_only_initial_record():
    spec, h = hubbard_1x2_source()
    cfg = RunConfig(total_time=0.0, initial_walkers=30, seed=3)
    traj = run(h, Circuit(spec.n_qubits, []), (), cfg, phi0=0b0110)
    assert len(traj.records) == 1
    r = traj.records[0]
    assert (r.step, r.tau, r.n_walkers) == (0, 0.0, 30)
    assert r.e_mixed == pytest.approx(0.0, abs=1e-12)


def test_run_deterministic_given_seed():
    spec, h = hubbard_1x2_source()
    cfg = RunConfig(total_time=0.3, initial_walkers=40, seed=11, threshold=60)
    t1 = run(h, Circuit(spec.n_qubits, []), (), cfg, phi0=0b0110)
    t2 = run(h, Circuit(spec.n_qubits, []), (), cfg, phi0=0b0110)
    assert trajectory_to_csv(t1) == trajectory_to_csv(t2)


def test_run_seed_changes_trajectory():
    spec, h = hubbard_1x2_source()
    cfg_a = RunConfig(total_time=0.3, initial_walkers=40, seed=11, threshold=60)
    cfg_b = RunConfig(total_time=0.3, initial_walkers=40, seed=12, threshold=60)
    t1 = run(h, Circuit(spec.n_qubits, []), (), cfg_a, phi0=0b0110)
    t2 = run(h, Circuit(spec.n_qubits, []), (), cfg_b, phi0=0b0110)
    assert trajectory_to_csv(t1) != trajectory_to_csv(t2)


def test_run_diagonalizing_basis_is_frozen():
    h = PauliSum([PauliTerm(0.7, PauliWord(1, 1, 0))])
    u = Circuit(1, [PauliRotation(PauliWord(1, 1, 1), angle=np.pi / 2)])
    cfg = RunConfig(total_time=0.5, initial_walkers=25, seed=5, threshold=10**9)
    traj = run(h, u, (), cfg, phi0=1)
    for r in traj.records:
        assert r.n_occupied == 1
        assert r.e_mixed == pytest.approx(-0.7, abs=1e-10)


def test_run_classical_1x2_converges_to_ed():
    """Identity-basis engine on the dimer: E_mixed and shift within 3 SE of ED."""
    spec, h = hubbard_1x2_source()
    exact = 2.0 - 2.0 * np.sqrt(2.0)
    cfg = RunConfig(
        total_time=12.0, delta_tau=2e-3, initial_walkers=50, seed=7,
        threshold=400, equilibration_fraction=0.5,
    )
    traj = run(h, Circuit(spec.n_qubits, []), (), cfg, phi0=0b0110)
    stats = statistics(traj, cfg)
    assert abs(stats.mean - exact) < 3 * stats.std_error + 1e-9
    # equilibrated shift agrees too
    records = traj.records[len(traj.records) // 2:]
    shifts = np.asarray([r.shift for r in records])
    _, plateau = blocking_analysis(shifts)
    assert abs(shifts.mean() - exact) < 3 * plateau.std_error


@pytest.mark.parametrize("backend", [
    ExactBackend(),
    SampledBackend(shots_magnitude=10**4, shots_sign=10**3),
])
def test_run_measures_each_row_once(monkeypatch, backend):
    """One transformed column and one magnitude draw per distinct row."""
    from qcfciqmc.vqa import hubbard_hv_generator_groups, layered_ansatz

    spec, h = hubbard_1x2_source()
    circuit = layered_ansatz(hubbard_hv_generator_groups(spec), 1, 0b0110, spec.n_qubits)
    params = 0.3 * np.ones(circuit.n_slots)
    requested, measured, drawn = [], [], []
    real_row, real_measure = ElementSource.row, ElementSource._measure
    real_magnitudes = matelem.row_magnitudes
    monkeypatch.setattr(ElementSource, "row",
                        lambda self, i: requested.append(i) or real_row(self, i))
    monkeypatch.setattr(ElementSource, "_measure",
                        lambda self, i: measured.append(i) or real_measure(self, i))
    monkeypatch.setattr(matelem, "row_magnitudes",
                        lambda src, i: drawn.append(i) or real_magnitudes(src, i))
    cfg = RunConfig(total_time=0.2, delta_tau=0.01, initial_walkers=200, seed=9,
                    threshold=10**6)
    src = ElementSource(h, circuit, params, backend=backend, seed=4)
    run(h, circuit, params, cfg, source=src, phi0=0)
    assert len(set(requested)) > 1
    assert sorted(measured) == sorted(set(requested))
    assert sorted(drawn) == sorted(set(requested))


def two_spin_source():
    """H = 0.5 (X0 + X1) + Z0 + Z1.  With S = H'_00 = 2, the row L1 magnitude
    |H'_ii - S| + sum_j |H'_ji| is 1 on row 0, 3 on rows 1 and 2, 5 on row 3."""
    h = PauliSum([
        PauliTerm(0.5, PauliWord(2, 0b01, 0)),
        PauliTerm(0.5, PauliWord(2, 0b10, 0)),
        PauliTerm(1.0, PauliWord(2, 0, 0b01)),
        PauliTerm(1.0, PauliWord(2, 0, 0b10)),
    ])
    return h, Circuit(2, [])


@pytest.mark.parametrize("delta_tau, n_warnings", [(0.19, 0), (0.2, 1), (0.35, 1)])
def test_run_warns_once_when_a_row_l1_reaches_one_over_delta_tau(delta_tau, n_warnings):
    """0.19: every row below the limit; 0.2: row 3 exactly at it; 0.35: rows
    1, 2 and 3 above it, still one warning."""
    h, circuit = two_spin_source()
    cfg = RunConfig(total_time=12 * delta_tau, delta_tau=delta_tau, initial_walkers=200,
                    seed=3, threshold=10**9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = run(h, circuit, (), cfg, phi0=0)
    assert max(r.n_occupied for r in traj.records) == 4
    l1 = [str(w.message) for w in caught if "row L1" in str(w.message)]
    assert len(l1) == n_warnings
    if delta_tau == 0.2:
        assert l1[0].startswith("delta_tau * row L1 magnitude = 1.000 >= 1 on index 3")


def test_run_extinction_raises(monkeypatch):
    """run() aborts with a diagnostic when every walker disappears."""
    import qcfciqmc.fciqmc as engine

    monkeypatch.setattr(
        engine, "death_clone_step", lambda pop, src, s, dt, rng: WalkerPopulation({})
    )
    h = PauliSum([PauliTerm(0.3, PauliWord(1, 0, 1))])
    cfg = RunConfig(total_time=1.0, delta_tau=0.1, initial_walkers=5, seed=2)
    with pytest.raises(ExtinctionError, match="died out at step 1"):
        run(h, Circuit(1, []), (), cfg, phi0=0)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def synthetic_trajectory(samples):
    traj = Trajectory(config=RunConfig(equilibration_fraction=0.0))
    for k, e in enumerate(samples):
        traj.records.append(TrajectoryRecord(k, k * 1e-3, 0.0, 100, 4, float(e)))
    return traj


def test_statistics_constant_series():
    traj = synthetic_trajectory(np.full(64, -1.5))
    stats = statistics(traj)
    assert stats.mean == -1.5
    assert stats.std == 0.0
    assert stats.std_error == 0.0


def test_statistics_iid_matches_root_n():
    rng = np.random.default_rng(1234)
    n = 4096
    traj = synthetic_trajectory(rng.normal(size=n))
    stats = statistics(traj)
    assert stats.std_error == pytest.approx(1.0 / np.sqrt(n), rel=0.2)


def test_statistics_ar1_exceeds_naive():
    rng = np.random.default_rng(99)
    n = 8192
    rho = 0.9
    x = np.empty(n)
    x[0] = rng.normal()
    for k in range(1, n):
        x[k] = rho * x[k - 1] + np.sqrt(1 - rho**2) * rng.normal()
    traj = synthetic_trajectory(x)
    stats = statistics(traj)
    naive = np.std(x, ddof=1) / np.sqrt(n)
    assert stats.std_error > 2.0 * naive


def test_statistics_requires_enough_samples():
    traj = synthetic_trajectory(np.arange(10.0))
    with pytest.raises(FciqmcError):
        statistics(traj)


def test_statistics_respects_equilibration_cut():
    samples = np.concatenate([np.full(50, 100.0), np.full(50, -1.0)])
    traj = synthetic_trajectory(samples)
    traj.config = RunConfig(equilibration_fraction=0.5)
    stats = statistics(traj)
    assert stats.mean == -1.0


def test_summary_shift_tail_starts_where_the_energy_samples_start():
    """The reference is empty for the first 10 of 50 records: both cuts drop
    half of the 40 energy records, so both tails start at record 30."""
    traj = Trajectory(config=RunConfig(equilibration_fraction=0.5))
    for k in range(50):
        traj.records.append(TrajectoryRecord(k, k * 1e-3, float(k), 100, 4,
                                             None if k < 10 else float(k)))
    stats = statistics(traj)
    summary = summary_record(traj, stats)
    assert stats.n_samples == 20
    assert stats.mean == summary["mean_shift"] == np.mean(np.arange(30, 50))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_trajectory_csv_round_trip():
    spec, h = hubbard_1x2_source()
    cfg = RunConfig(total_time=0.05, initial_walkers=20, seed=9, threshold=30)
    traj = run(h, Circuit(spec.n_qubits, []), (), cfg, phi0=0b0110)
    text = trajectory_to_csv(traj)
    back = trajectory_from_csv(text)
    assert back.records == traj.records
    assert text.splitlines()[0] == "step,tau,shift,n_walkers,n_occupied,e_mixed"


def test_trajectory_csv_missing_energy_field():
    traj = Trajectory()
    traj.records.append(TrajectoryRecord(0, 0.0, -1.0, 10, 1, None))
    text = trajectory_to_csv(traj)
    assert text.splitlines()[1].endswith(",")
    back = trajectory_from_csv(text)
    assert back.records[0].e_mixed is None

"""Acceptance checklist: one numbered end-to-end check per test.

Each test prints a single `ACn PASS/FAIL: ...` line before asserting, so a
verbose run reads as a checklist.  Tolerances are pinned here and nothing
loosens them.  Heavier checks reuse module-scoped fixtures (one trained
circuit, one Hamiltonian build) but never share random streams.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from qcfciqmc import cli
from qcfciqmc.exactdiag import diagonalize, number_sector_indices, project_to_sector
from qcfciqmc.fciqmc import (
    RunConfig,
    WalkerPopulation,
    annihilate,
    blocking_analysis,
    death_clone_step,
    run,
    spawn_step,
    spawn_table,
    statistics,
)
from qcfciqmc.matelem import (
    ENGINE,
    ElementSource,
    ExactBackend,
    KeyedStreams,
    SampledBackend,
    SignAmbiguityError,
    element_sign,
    get_element,
    row_magnitudes,
    signed_row,
)
from helpers import nsi_initial, nsi_thermal
from qcfciqmc.nsi import split, theorem1_bound, theorem2_indicator, transformed_nsi
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
from qcfciqmc.vqa import (
    OptimizerConfig,
    adapt_vqe,
    circuit_energy,
    gradient,
    hubbard_hv_generator_groups,
    layered_ansatz,
    lowest_diagonal_reference,
    singles_doubles_pool,
    vqe_minimize,
)

E_1X2 = 2.0 - 2.0 * math.sqrt(2.0)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# shared builds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hub2x2():
    spec = HubbardSpec((2, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    dense = to_dense(h).real
    sector = number_sector_indices(8, n_up=2, n_dn=2)
    e0 = diagonalize(project_to_sector(dense, sector)).ground_energy()
    ref = lowest_diagonal_reference(h, sector)
    return {"spec": spec, "h": h, "dense": dense, "sector": sector, "e0": e0, "ref": ref}


@pytest.fixture(scope="module")
def trained2x2(hub2x2):
    """Three-layer layered ansatz trained from a fixed random start.

    The all-zeros point is a symmetry saddle of this ansatz, so the start must
    be random; the seed pins the result."""
    spec, h, ref = hub2x2["spec"], hub2x2["h"], hub2x2["ref"]
    circuit = layered_ansatz(hubbard_hv_generator_groups(spec), 3, ref, 8)
    init = 0.2 * np.random.default_rng(105).standard_normal(circuit.n_slots)
    res = vqe_minimize(circuit, h, init, OptimizerConfig(gtol=1e-5, max_iterations=100))
    return circuit, res


# oracle route for matrix elements: gate matrices from the cosine formula,
# assembled without the package's column plumbing
def _dense_gate(word: PauliWord, angle: float) -> np.ndarray:
    w = to_dense(PauliSum([PauliTerm(1.0, word)]))
    return np.cos(0.5 * angle) * np.eye(w.shape[0]) - 1j * np.sin(0.5 * angle) * w


def _dense_transformed(h: PauliSum, circuit: Circuit, params=()) -> np.ndarray:
    dim = 1 << circuit.n_qubits
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        a = g.angle if g.slot is None else g.scale * params[g.slot]
        u = _dense_gate(g.word, a) @ u
    return u.conj().T @ to_dense(h) @ u


def _real_instance(rng, n_qubits=3, n_terms=6, n_gates=4):
    """Even-Y Hamiltonian with odd-Y rotations: H' real, sign*magnitude exact."""
    terms = []
    while len(terms) < n_terms:
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        w = PauliWord(n_qubits, x, z)
        if w.y_count % 2 == 0:
            terms.append(PauliTerm(float(rng.normal()), w))
    gates = []
    while len(gates) < n_gates:
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        w = PauliWord(n_qubits, x, z)
        if w.y_count % 2 == 1:
            gates.append(PauliRotation(w, angle=float(rng.normal())))
    return PauliSum(terms).simplify(), Circuit(n_qubits, gates)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def test_ac01_dimer_ground_energy():
    spec = HubbardSpec((1, 2), t=1.0, u=4.0)
    dense = to_dense(jordan_wigner(build_hubbard(spec))).real
    sector = number_sector_indices(4, n_up=1, n_dn=1)
    t0 = time.perf_counter()
    e = diagonalize(project_to_sector(dense, sector)).ground_energy()
    elapsed = time.perf_counter() - t0
    err = abs(e - E_1X2)
    _report(
        "AC1",
        err < 1e-10 and elapsed < 1.0,
        f"half-filled 1x2 ground energy {e:.14f} vs 2-2*sqrt(2), err {err:.2e}, {elapsed:.3f}s",
    )


def test_ac02_identity_basis_engine_agrees_with_diagonalization(hub2x2):
    h, ref, e0 = hub2x2["h"], hub2x2["ref"], hub2x2["e0"]
    cfg = RunConfig(delta_tau=1e-3, total_time=15.0, initial_walkers=100, seed=7,
                    threshold=5000)
    traj = run(ElementSource(h, Circuit(8, []), seed=cfg.seed), cfg, phi0=ref)
    stats = statistics(traj)
    post = traj.records[int(len(traj.records) * cfg.equilibration_fraction):]
    _, plateau = blocking_analysis([r.shift for r in post])
    mean_shift = float(np.mean([r.shift for r in post]))
    final = traj.records[-1].n_walkers
    z_e = abs(stats.mean - e0) / stats.std_error
    z_s = abs(mean_shift - e0) / plateau.std_error
    _report(
        "AC2",
        final >= 5000 and z_e <= 3.0 and z_s <= 3.0,
        f"{final} walkers; E_mixed {stats.mean:.6f} at {z_e:.2f} blocking-SE, "
        f"shift {mean_shift:.6f} at {z_s:.2f} blocking-SE from E0 {e0:.6f}",
    )


def test_ac03a_prepared_basis_cuts_estimator_variance(hub2x2, trained2x2):
    h, ref = hub2x2["h"], hub2x2["ref"]
    circuit, res = trained2x2
    cfg = RunConfig(delta_tau=1e-3, total_time=10.0, initial_walkers=6000, seed=11,
                    threshold=5000)
    s_id = statistics(run(ElementSource(h, Circuit(8, []), seed=cfg.seed), cfg, phi0=ref))
    # the circuit owns its preparation flips, so its reference index is 0
    s_tr = statistics(run(ElementSource(h, circuit, res.params, seed=cfg.seed), cfg, phi0=0))
    ratio = s_id.std / s_tr.std
    _report(
        "AC3a",
        ratio >= 2.0,
        f"3-layer basis (E_vqe {res.energy:.4f}): std(E_mixed) {s_tr.std:.5f} vs "
        f"identity {s_id.std:.5f} at matched walker count, ratio {ratio:.1f} (need >= 2)",
    )


def test_ac03b_prepared_basis_thermal_nsi(hub2x2, trained2x2):
    dense, h = hub2x2["dense"], hub2x2["h"]
    circuit, res = trained2x2
    beta = 0.1
    s_id = nsi_thermal(dense, beta)
    s_tr = transformed_nsi(h, circuit, res.params, beta).s_thermal
    _report(
        "AC3b",
        s_tr < s_id,
        f"thermal NSI at beta {beta}: transformed {s_tr:.6e} vs identity {s_id:.6e}; "
        "the trained basis lowers estimator variance (AC3a) but raises this indicator",
    )


def test_ac04_theorem1_bound_dominates_thermal_nsi():
    rng = np.random.default_rng(404)
    betas = (0.05, 0.1, 0.5)
    n_generic = 0
    worst = -np.inf
    for dim in (4, 8):
        for _ in range(60):
            b = rng.normal(size=(dim, dim))
            a = 0.5 * (b + b.T)
            n_generic += 1
            off = ~np.eye(dim, dtype=bool)
            stoq = a.copy()
            stoq[off] = -np.abs(stoq[off])
            for beta in betas:
                s = nsi_thermal(a, beta)
                bound = theorem1_bound(split(a), beta)
                worst = max(worst, s - bound)
                assert bound >= s - 1e-12, f"bound {bound} below NSI {s} (dim {dim}, beta {beta})"
                assert abs(nsi_thermal(stoq, beta)) <= 1e-12
    _report(
        "AC4",
        n_generic >= 100,
        f"{n_generic} random matrices x {len(betas)} betas: bound >= NSI "
        f"(worst margin {worst:.3e}); stoquastic variants all |NSI| <= 1e-12",
    )


def test_ac05_theorem2_indicator_is_the_reference_variance():
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(50):
        b = rng.normal(size=(8, 8))
        a = 0.5 * (b + b.T)
        h2 = a @ a
        for phi0 in (0, 3, 7):
            ind = theorem2_indicator(a, phi0)
            var = h2[phi0, phi0] - a[phi0, phi0] ** 2
            worst = max(worst, abs(ind - var))
            assert abs(ind - var) <= 1e-10
    # decoupled reference: indicator and initial-state NSI both vanish
    b = rng.normal(size=(8, 8))
    a = 0.5 * (b + b.T)
    a[:, 2] = 0.0
    a[2, :] = 0.0
    a[2, 2] = 0.7
    zero_ind = theorem2_indicator(a, 2)
    zero_nsi = abs(nsi_initial(a, 2, 0.1))
    _report(
        "AC5",
        worst <= 1e-10 and zero_ind <= 1e-10 and zero_nsi <= 1e-10,
        f"indicator == <H^2> - <H>^2 on 150 reference choices (worst dev {worst:.2e}); "
        f"decoupled case gives {zero_ind:.1e} and initial NSI {zero_nsi:.1e}",
    )


def test_ac06_matrix_element_backends():
    # exact backend against the independently assembled dense U^dag H U
    worst = 0.0
    for trial in range(12):
        h, circ = _real_instance(np.random.default_rng(4200 + trial))
        hp = _dense_transformed(h, circ)
        assert np.max(np.abs(hp.imag)) < 1e-10
        src = ElementSource(h, circ, backend=ExactBackend(magnitude_floor=1e-12))
        recon = np.zeros((8, 8))
        for i in range(8):
            recon[i, i] = get_element(src, i, i)
            for j, val in signed_row(src, i):
                recon[j, i] = val
        worst = max(worst, float(np.max(np.abs(recon - hp.real))))
    ok_exact = worst < 1e-10

    # sampled magnitudes: every reported |H'_ji|^2 within 5 SE of the truth
    h, circ = _real_instance(np.random.default_rng(777))
    hp = _dense_transformed(h, circ).real
    col = hp[:, 0]
    nu_sq = float(col @ col)
    shots = 10 ** 6
    worst_z = 0.0
    n_checked = 0
    for seed in range(200):
        src = ElementSource(h, circ, backend=SampledBackend(shots_magnitude=shots), seed=seed)
        for j, mag in row_magnitudes(src, 0).connections:
            p = col[j] ** 2 / nu_sq
            se = nu_sq * math.sqrt(p * (1.0 - p) / shots)
            worst_z = max(worst_z, abs(mag ** 2 - col[j] ** 2) / se)
            n_checked += 1
    ok_sampled = worst_z <= 5.0

    # sign readout on every connection above the 0.1 * nu magnitude cut
    nu = math.sqrt(nu_sq)
    big = [j for j in range(1, 8) if abs(col[j]) > 0.1 * nu]
    n_sign = 0
    n_err = 0
    for seed in range(2000):
        src = ElementSource(h, circ, backend=SampledBackend(), seed=10_000 + seed)
        for j in big:
            n_sign += 1
            try:
                if element_sign(src, 0, j) != (1 if col[j] > 0 else -1):
                    n_err += 1
            except SignAmbiguityError:
                n_err += 1
    rate = n_err / n_sign
    _report(
        "AC6",
        ok_exact and ok_sampled and rate < 1e-3,
        f"exact vs dense worst dev {worst:.2e} over 12 instances; sampled worst z "
        f"{worst_z:.2f} over {n_checked} magnitude estimates at 1e6 shots; sign error "
        f"rate {rate:.2e} over {n_sign} reads above the 0.1*nu cut",
    )


def test_ac07_single_step_mean_matches_linear_propagator():
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
    pop0 = WalkerPopulation.from_dict(src, {i: int(c0[i]) for i in range(4)})
    n_trials = 100_000
    acc = np.zeros(4)
    t0 = time.perf_counter()
    # one engine-domain generator for all trials, as the engine draws its steps
    rng = KeyedStreams(42).stream(ENGINE)
    table = spawn_table(pop0, src, dt)
    for _ in range(n_trials):
        spawned = spawn_step(pop0, table, rng)
        survivors = death_clone_step(pop0, table, shift, rng)
        new = annihilate(survivors, spawned)
        counts = dict(zip(new.indices.tolist(), new.signed.tolist()))
        for i in range(4):
            acc[i] += counts.get(i, 0)
    elapsed = time.perf_counter() - t0
    mean = acc / n_trials
    expected = c0 - dt * (hd - shift * np.eye(4)) @ c0
    worst_z = 0.0
    for i in range(4):
        var = 0.0
        p_d = abs((hd[i, i] - shift) * dt)
        var += abs(c0[i]) * p_d * (1 - p_d)
        for j in range(4):
            if j != i:
                p_s = abs(hd[i, j]) * dt
                var += abs(c0[j]) * p_s * (1 - p_s)
        sigma = math.sqrt(max(var, 1e-12) / n_trials)
        worst_z = max(worst_z, abs(mean[i] - expected[i]) / sigma)
    _report(
        "AC7",
        worst_z < 4.0,
        f"mean one-step change over {n_trials} seeded steps within {worst_z:.2f} sigma "
        f"of c - dt (H' - S) c componentwise ({elapsed:.1f}s)",
    )


def test_ac08_gradients_and_adapt():
    # adjoint-method gradient against central finite differences
    worst_rel = 0.0
    for k in range(2):
        rng = np.random.default_rng(2600 + k)
        terms = []
        for _ in range(6):
            x = int(rng.integers(0, 8))
            z = int(rng.integers(0, 8))
            terms.append(PauliTerm(float(rng.normal()), PauliWord(3, x, z)))
        h = PauliSum(terms).simplify()
        gates = []
        for m in range(8):
            x = int(rng.integers(1, 8))
            z = int(rng.integers(0, 8))
            gates.append(PauliRotation(PauliWord(3, x, z), slot=m, scale=1.0))
        circ = Circuit(3, gates)
        params = 0.7 * rng.standard_normal(8)
        g = gradient(circ, h, params)
        step = 1e-5
        for m in range(8):
            up = params.copy()
            dn = params.copy()
            up[m] += step
            dn[m] -= step
            fd = (circuit_energy(circ, h, up) - circuit_energy(circ, h, dn)) / (2 * step)
            worst_rel = max(worst_rel, abs(g[m] - fd) / max(1.0, abs(g[m])))
    ok_grad = worst_rel <= 1e-6

    # ADAPT-VQE: monotone energy history, dimer ground state to 1e-6
    spec = HubbardSpec((1, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    sector = number_sector_indices(4, n_up=1, n_dn=1)
    ref = lowest_diagonal_reference(h, sector)
    res = adapt_vqe(h, singles_doubles_pool(4), max_operators=6, reference=ref,
                    n_qubits=4, gradient_tol=1e-4)
    energies = [e for _, e in res.history]
    monotone = all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    err = abs(res.energy - E_1X2)
    _report(
        "AC8",
        ok_grad and monotone and err <= 1e-6,
        f"gradient vs FD worst rel dev {worst_rel:.2e}; ADAPT history monotone "
        f"({len(res.history)} rounds) and dimer energy err {err:.2e}",
    )


def test_ac09_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "runs"
    conf = tmp_path / "exp.conf"
    conf.write_text(
        f"""
seed = 3
output.dir = {out}
model.hubbard.shape = 1x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
ansatz.kind = adapt
ansatz.max_operators = 6
ansatz.gradient_tol = 1e-4
identity.basis = true
qmc.total_time = 4.0
qmc.delta_tau = 2e-3
qmc.threshold = 400
"""
    )
    names = ["vqe.json", "circuit.txt", "trajectory.csv", "summary.json"]

    def run_once():
        assert cli.main(["vqe", str(conf)]) == 0
        assert cli.main(["qmc", str(conf)]) == 0
        return {n: (out / n).read_bytes() for n in names}

    first = run_once()
    second = run_once()
    same = [n for n in names if first[n] == second[n]]
    _report(
        "AC9",
        same == names,
        f"repeated runs from one config and seed reproduce {', '.join(names)} byte for byte",
    )


def test_ac10_optional_molecular_sweep(tmp_path):
    path = os.environ.get("QCFCIQMC_N2_FCIDUMP", "")
    if not path:
        candidate = Path(__file__).parent / "data" / "n2.fcidump"
        path = str(candidate) if candidate.is_file() else ""
    if not path:
        print("AC10 SKIP: no molecular integral file provided (set QCFCIQMC_N2_FCIDUMP)")
        pytest.skip("optional molecular sweep needs an FCIDUMP file")
    out = tmp_path / "sweep"
    conf = tmp_path / "n2.conf"
    conf.write_text(
        f"""
seed = 5
output.dir = {out}
model.fcidump.path = {path}
model.fcidump.frozen = 1, 2, 3, 4
ansatz.kind = adapt
ansatz.max_operators = 8
qmc.total_time = 5.0
qmc.threshold = 2000
sweep.depths = 4, 8
"""
    )
    assert cli.main(["sweep", str(conf)]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    ok_rows = [r for r in rows if not r["error"]]
    assert ok_rows, "every sweep point failed"
    best = min(r["e_qmc_mean"] for r in ok_rows)
    e_vqe = ok_rows[-1]["e_vqe"]
    _report(
        "AC10",
        best <= e_vqe + 1e-6,
        f"molecular sweep ran end to end; best projector mean {best:.6f} vs "
        f"variational {e_vqe:.6f}",
    )

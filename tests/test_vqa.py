"""Tests for ansatz construction, adjoint-method gradients, and VQE/ADAPT.

The gradient is checked against central finite differences, against a
test-only parameter-shift rule, the exact rule that quantum hardware uses,
and against a gate-by-gate adjoint sweep over the test helpers' reference
circuit path.  Two training runs are pinned by the sha256 of their circuit
files."""

import hashlib

import numpy as np
import pytest

from helpers import apply_gates, basis_state
from qcfciqmc.cli import serialize_circuit
from qcfciqmc.operators import (
    HubbardSpec,
    PauliSum,
    PauliTerm,
    PauliWord,
    apply_pauli_sum,
    apply_word,
    build_hubbard,
    jordan_wigner,
    to_dense,
)
from qcfciqmc.exactdiag import number_sector_indices
from qcfciqmc.simulator import (
    BasisFlip,
    Circuit,
    PauliApply,
    PauliRotation,
    CircuitLayout,
    apply_circuit,
    compile_circuit,
)
from qcfciqmc.vqa import (
    AnsatzSpec,
    OptimizerConfig,
    VqaError,
    adapt_vqe,
    circuit_energy,
    generator_gates,
    gradient,
    hubbard_hv_generator_groups,
    layered_ansatz,
    lowest_diagonal_reference,
    molecular_reference,
    pool_gradients,
    singles_doubles_pool,
    vqe_minimize,
)

RNG = np.random.default_rng(20240814)


def hubbard_1x2():
    spec = HubbardSpec(shape=(1, 2), t=1.0, u=4.0)
    return spec, jordan_wigner(build_hubbard(spec))


def hubbard_2x2():
    spec = HubbardSpec(shape=(2, 2), t=1.0, u=4.0)
    return spec, jordan_wigner(build_hubbard(spec))


def half_filling(spec):
    n = spec.n_sites
    return number_sector_indices(spec.n_qubits, n_up=n // 2 + n % 2, n_dn=n // 2)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def test_molecular_reference_filling():
    # 2 electrons, singlet: modes 0 (up) and 1 (dn) of orbital 0
    assert molecular_reference(4, 2) == 0b11
    # 4 electrons in 4 modes: completely filled
    assert molecular_reference(4, 4) == 0b1111
    # triplet ms2 = 2 with 2 electrons: both up, orbitals 0 and 1
    assert molecular_reference(8, 2, ms2=2) == 0b0101


def test_molecular_reference_rejects_overfill():
    with pytest.raises(VqaError):
        molecular_reference(4, 6)


def test_lowest_diagonal_reference_neel_2x2():
    spec, h = hubbard_2x2()
    ref = lowest_diagonal_reference(h, half_filling(spec))
    # a half-filled determinant with no double occupancy (diagonal = 0)
    from qcfciqmc.operators import diagonal_entry

    assert diagonal_entry(h, ref) == pytest.approx(0.0, abs=1e-12)
    occ_sites = [s for s in range(4) if ((ref >> (2 * s)) & 1) and ((ref >> (2 * s + 1)) & 1)]
    assert occ_sites == []


def test_lowest_diagonal_reference_tie_breaks_low():
    h = PauliSum([PauliTerm(0.0, PauliWord(2, 0, 0))])  # all diagonals equal
    assert lowest_diagonal_reference(h, [2, 1, 3]) == 1


# ---------------------------------------------------------------------------
# ansatz structure
# ---------------------------------------------------------------------------


def test_layered_ansatz_real_orthogonal():
    """Every generator word has odd Y count, so the circuit matrix is real."""
    spec, _ = hubbard_1x2()
    groups = hubbard_hv_generator_groups(spec)
    for gen in groups:
        for t in gen.terms:
            assert t.word.y_count % 2 == 1
    c = layered_ansatz(groups, 2, 0b0110, spec.n_qubits)
    params = RNG.normal(size=c.n_slots)
    dim = 1 << spec.n_qubits
    for col in range(0, dim, 5):
        s = apply_circuit(basis_state(spec.n_qubits, col), c, params)
        assert np.abs(s.imag).max() < 1e-12


def sector_leak(circuit, params) -> float:
    """Largest norm of U|i>, over every basis state i, outside the
    (n_up, n_dn) sector of i XOR the mask of the circuit's leading basis
    flips; up spins sit on even modes.  The compiled runs, which the VQE and
    the H' columns read, and the gate-by-gate reference are both read."""
    n = circuit.n_qubits
    idx = np.arange(1 << n)
    up = sum((idx >> m) & 1 for m in range(0, n, 2))
    dn = sum((idx >> m) & 1 for m in range(1, n, 2))
    flips = 0
    for g in circuit.gates:
        if not isinstance(g, BasisFlip):
            break
        flips ^= 1 << g.qubit
    start = idx ^ flips
    outside = (up[:, None] != up[start]) | (dn[:, None] != dn[start])  # [j, i]
    eye = np.eye(1 << n, dtype=complex)
    compiled = compile_circuit(circuit, params)
    relabelled = np.empty_like(eye)
    relabelled[compiled.labels] = compiled.apply(eye)  # row p holds label labels[p]
    worst = 0.0
    for cols in (apply_gates(eye, n, circuit.gates, params), relabelled):
        weight = np.where(outside, np.abs(cols) ** 2, 0.0).sum(axis=0)
        worst = max(worst, float(np.sqrt(weight.max())))
    return worst


@pytest.mark.parametrize("shape", [(2, 2), (1, 3)])
def test_layered_ansatz_conserves_particle_number(shape):
    spec = HubbardSpec(shape=shape, t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    ref = lowest_diagonal_reference(h, half_filling(spec))
    c = layered_ansatz(hubbard_hv_generator_groups(spec), 2, ref, spec.n_qubits)
    assert ref and isinstance(c.gates[0], BasisFlip)
    rng = np.random.default_rng(sum(shape))
    for _ in range(3):
        assert sector_leak(c, rng.normal(size=c.n_slots)) <= 1e-12


def test_singles_doubles_pool_conserves_particle_number():
    rng = np.random.default_rng(4)
    for gen in singles_doubles_pool(4):
        c = Circuit(4, generator_gates(gen, 0))
        assert sector_leak(c, rng.normal(size=1)) <= 1e-12


def test_generator_gates_reject_hermitian_input():
    gen = PauliSum([PauliTerm(1.0, PauliWord(2, 0b01, 0b01))])
    with pytest.raises(VqaError):
        generator_gates(gen, 0)


def test_ansatz_spec_checks_its_kind_and_depths():
    with pytest.raises(VqaError, match="kind must be hv or adapt"):
        AnsatzSpec(kind="uccsd")
    with pytest.raises(VqaError, match="non-negative"):
        AnsatzSpec(layers=-1)
    with pytest.raises(VqaError, match="non-negative"):
        AnsatzSpec(kind="adapt", max_operators=-1)
    assert AnsatzSpec().kind == "hv"


def test_singles_doubles_pool_antihermitian():
    pool = singles_doubles_pool(4)
    assert pool
    for gen in pool:
        dense = to_dense(gen)
        np.testing.assert_allclose(dense.conj().T, -dense, atol=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def random_hermitian_sum(n_qubits, rng):
    """Random Hermitian PauliSum: real coefficients, any Pauli word."""
    terms = []
    for _ in range(6):
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        terms.append(PauliTerm(float(rng.normal()), PauliWord(n_qubits, x, z)))
    return PauliSum(terms).simplify()


@pytest.mark.parametrize("trial", range(8))
def test_gradient_matches_finite_difference(trial):
    rng = np.random.default_rng(500 + trial)
    n_qubits = int(rng.integers(2, 4))
    h = random_hermitian_sum(n_qubits, rng)
    gates = []
    n_slots = int(rng.integers(1, 4))
    for _ in range(int(rng.integers(2, 6))):
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        gates.append(
            PauliRotation(
                PauliWord(n_qubits, x, z),
                slot=int(rng.integers(0, n_slots)),
                scale=float(rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0])),
            )
        )
    c = Circuit(n_qubits, gates)
    params = rng.normal(size=c.n_slots)
    g = gradient(c, h, params)
    eps = 1e-5
    for k in range(c.n_slots):
        dp = params.copy()
        dp[k] += eps
        dm = params.copy()
        dm[k] -= eps
        fd = (circuit_energy(c, h, dp) - circuit_energy(c, h, dm)) / (2 * eps)
        assert g[k] == pytest.approx(fd, abs=5e-9, rel=1e-6)


def parameter_shift_gradient(circuit, h, params):
    """Oracle: per parametric gate, half the energy difference at its resolved
    angle shifted by +-pi/2, times the gate's scale, summed per slot."""
    grad = np.zeros(circuit.n_slots)
    for pos, g in enumerate(circuit.gates):
        if not (isinstance(g, PauliRotation) and g.slot is not None):
            continue
        angle = g.scale * params[g.slot]
        energies = []
        for shift in (0.5 * np.pi, -0.5 * np.pi):
            gates = list(circuit.gates)
            gates[pos] = PauliRotation(g.word, angle=angle + shift)
            energies.append(circuit_energy(Circuit(circuit.n_qubits, gates), h, params))
        grad[g.slot] += g.scale * 0.5 * (energies[0] - energies[1])
    return grad


def random_mixed_circuit(n_qubits, rng):
    """Parametric rotations on a few shared slots, interleaved with fixed-angle
    rotations, Pauli applications and basis flips."""
    n_slots = int(rng.integers(1, 4))
    gates = []
    for _ in range(int(rng.integers(4, 12))):
        word = PauliWord(n_qubits, int(rng.integers(0, 1 << n_qubits)),
                         int(rng.integers(0, 1 << n_qubits)))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            gates.append(PauliApply(word))
        elif kind == 1:
            gates.append(BasisFlip(int(rng.integers(0, n_qubits))))
        elif kind == 2:
            gates.append(PauliRotation(word, angle=float(rng.normal())))
        else:
            gates.append(PauliRotation(word, slot=int(rng.integers(0, n_slots)),
                                       scale=float(rng.choice([-2.0, -1.0, 0.5, 1.5]))))
    return Circuit(n_qubits, gates)


def test_gradient_matches_parameter_shift_on_layered_2x2_ansatz():
    spec, h = hubbard_2x2()
    ref = lowest_diagonal_reference(h, half_filling(spec))
    c = layered_ansatz(hubbard_hv_generator_groups(spec), 3, ref, spec.n_qubits)
    params = 0.2 * np.random.default_rng(105).standard_normal(c.n_slots)
    np.testing.assert_allclose(gradient(c, h, params), parameter_shift_gradient(c, h, params),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("trial", range(12))
def test_gradient_matches_parameter_shift_on_mixed_circuits(trial):
    rng = np.random.default_rng(900 + trial)
    n_qubits = int(rng.integers(1, 4))
    h = random_hermitian_sum(n_qubits, rng)
    c = random_mixed_circuit(n_qubits, rng)
    params = rng.normal(size=c.n_slots)
    np.testing.assert_allclose(gradient(c, h, params), parameter_shift_gradient(c, h, params),
                               rtol=0, atol=1e-12)


def test_gradient_without_parametric_gates_is_empty():
    w = PauliWord(2, 0b11, 0b01)
    c = Circuit(2, [BasisFlip(0), PauliApply(w), PauliRotation(w, angle=0.3)])
    h = random_hermitian_sum(2, np.random.default_rng(7))
    g = gradient(c, h, np.zeros(0))
    np.testing.assert_array_equal(g, np.zeros(c.n_slots))
    np.testing.assert_array_equal(g, parameter_shift_gradient(c, h, np.zeros(0)))


def test_pool_gradient_matches_finite_difference():
    spec, h = hubbard_1x2()
    ref = 0b0110
    pool = singles_doubles_pool(spec.n_qubits)
    from qcfciqmc.vqa import preparation_gates

    c0 = Circuit(spec.n_qubits, preparation_gates(ref, spec.n_qubits))
    grads = pool_gradients(compile_circuit(c0, ()), h, pool)
    eps = 1e-6
    for k, gen in enumerate(pool):
        cg = Circuit(spec.n_qubits, c0.gates + generator_gates(gen, 0))
        fd = (circuit_energy(cg, h, [eps]) - circuit_energy(cg, h, [-eps])) / (2 * eps)
        assert grads[k] == pytest.approx(fd, abs=1e-7)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def test_vqe_single_rotation_sine_landscape():
    """E(theta) = sin(theta) for Ry(theta)|0> measured against X: min at -pi/2."""
    w_y = PauliWord(1, 1, 1)  # Y
    c = Circuit(1, [PauliRotation(w_y, slot=0, scale=1.0)])
    h = PauliSum([PauliTerm(1.0, PauliWord(1, 1, 0))])  # X
    assert circuit_energy(c, h, [0.4]) == pytest.approx(np.sin(0.4), abs=1e-12)
    res = vqe_minimize(c, h, [0.3])
    assert res.converged
    assert res.energy == pytest.approx(-1.0, abs=1e-8)
    assert np.sin(res.params[0]) == pytest.approx(-1.0, abs=1e-8)


def test_vqe_history_monotone_nonincreasing():
    spec, h = hubbard_1x2()
    groups = hubbard_hv_generator_groups(spec)
    c = layered_ansatz(groups, 2, 0b0110, spec.n_qubits)
    res = vqe_minimize(c, h, 0.1 * RNG.normal(size=c.n_slots))
    energies = [e for (_, e) in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_vqe_builds_each_state_once(monkeypatch):
    """The circuit is compiled once per parameter vector tried: the accepted
    trial's runs and state feed the next gradient instead of being built
    again."""
    spec, h = hubbard_1x2()
    c = layered_ansatz(hubbard_hv_generator_groups(spec), 2, 0b0110, spec.n_qubits)
    tried = []
    real = CircuitLayout.compile

    def counting(layout, params):
        tried.append(tuple(params))
        return real(layout, params)

    monkeypatch.setattr(CircuitLayout, "compile", counting)
    init = 0.1 * np.random.default_rng(3).standard_normal(c.n_slots)
    res = vqe_minimize(c, h, init, OptimizerConfig(gtol=0.0, max_iterations=5))
    assert len(res.history) == 6
    assert len(tried) == len(set(tried)) > len(res.history)


def test_vqe_param_count_mismatch():
    c = Circuit(1, [PauliRotation(PauliWord(1, 1, 1), slot=0)])
    h = PauliSum([PauliTerm(1.0, PauliWord(1, 0, 1))])
    with pytest.raises(VqaError):
        vqe_minimize(c, h, [0.1, 0.2])


def test_adapt_zero_ops_returns_reference_energy():
    spec, h = hubbard_1x2()
    ref = 0b0110
    res = adapt_vqe(h, singles_doubles_pool(spec.n_qubits), 0, ref, spec.n_qubits)
    from qcfciqmc.operators import diagonal_entry

    assert res.energy == pytest.approx(diagonal_entry(h, ref), abs=1e-12)
    assert res.params.size == 0


def test_adapt_reaches_1x2_ground_state():
    spec, h = hubbard_1x2()
    ref = 0b0110
    res = adapt_vqe(
        h,
        singles_doubles_pool(spec.n_qubits),
        6,
        ref,
        spec.n_qubits,
        gradient_tol=1e-4,
    )
    exact = 2.0 - 2.0 * np.sqrt(2.0)
    assert res.energy == pytest.approx(exact, abs=1e-6)
    assert res.converged


def test_adapt_outer_energies_monotone():
    spec, h = hubbard_2x2()
    ref = lowest_diagonal_reference(h, half_filling(spec))
    res = adapt_vqe(
        h,
        singles_doubles_pool(spec.n_qubits),
        4,
        ref,
        spec.n_qubits,
        config=OptimizerConfig(max_iterations=150),
    )
    energies = [e for (_, e) in res.history]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_variational_bound_2x2():
    """Optimized or not, the ansatz energy can never dip below the sector ground state."""
    spec, h = hubbard_2x2()
    dense = to_dense(h)
    sector = half_filling(spec)
    sub = dense[np.ix_(sector, sector)]
    e0 = float(np.linalg.eigvalsh(sub)[0])
    ref = lowest_diagonal_reference(h, sector)
    groups = hubbard_hv_generator_groups(spec)
    c = layered_ansatz(groups, 2, ref, spec.n_qubits)
    res = vqe_minimize(c, h, 0.05 * np.ones(c.n_slots), OptimizerConfig(max_iterations=25))
    assert res.energy >= e0 - 1e-9
    assert res.energy < 0.0  # and it should at least beat the reference diagonal


# ---------------------------------------------------------------------------
# pinned outputs and the two-pass adjoint oracle
# ---------------------------------------------------------------------------
# The pins compare a training run with the circuit file an earlier version
# of the package wrote (numpy 2.4, Python 3.11, scipy-openblas 0.3.31 running
# its SkylakeX kernels on x86-64), so a speed change that moves the last bit
# of a gradient or an energy fails here even when every run still reproduces
# itself.  np.vdot's reductions go through BLAS, whose kernel is picked by CPU
# family, so these digests can differ on another CPU with the same numpy and
# Python.  The two-pass oracle tests below compare two sweeps in one process
# and hold on any machine; they are the main guard of the gradient's bits.

HV_2X2_CIRCUIT_SHA256 = "9db2ee82c6437b123504a67020d757119af9d199707d4e12a09da45c1877efee"
ADAPT_1X2_CIRCUIT_SHA256 = "5da1cdc6744509edcc5d3c2c3ff376aadc703637ea3cf44c31bcfbf7ac979130"


def circuit_digest(result) -> str:
    return hashlib.sha256(serialize_circuit(result.circuit, result.params).encode()).hexdigest()


def test_hv_2x2_training_circuit_pinned():
    """Four descent steps of the 3-layer layered ansatz from the CLI's seed-1 start."""
    spec, h = hubbard_2x2()
    ref = lowest_diagonal_reference(h, half_filling(spec))
    c = layered_ansatz(hubbard_hv_generator_groups(spec), 3, ref, spec.n_qubits)
    init = 0.2 * np.random.default_rng(1).standard_normal(c.n_slots)
    res = vqe_minimize(c, h, init, OptimizerConfig(gtol=0.0, max_iterations=4))
    assert len(res.history) == 5
    assert circuit_digest(res) == HV_2X2_CIRCUIT_SHA256


def test_adapt_1x2_circuit_pinned():
    spec, h = hubbard_1x2()
    res = adapt_vqe(h, singles_doubles_pool(spec.n_qubits), 3, 0b0110, spec.n_qubits,
                    gradient_tol=1e-4, config=OptimizerConfig(max_iterations=30))
    assert res.circuit.n_slots >= 1
    assert circuit_digest(res) == ADAPT_1X2_CIRCUIT_SHA256


def two_pass_gradient(circuit, h, params):
    """The adjoint gradient gate by gate, on the test helpers' reference
    path: W acts on phi for the derivative, then again on the whole pair
    inside the reference's inverse step."""
    n = circuit.n_qubits
    grad = np.zeros(circuit.n_slots)
    psi = apply_gates(basis_state(n, 0), n, circuit.gates, params)
    pair = np.stack([psi, apply_pauli_sum(h, psi)], axis=1)
    for g in reversed(circuit.gates):
        if isinstance(g, PauliRotation) and g.slot is not None:
            phi, lam = pair[:, 0], pair[:, 1]
            grad[g.slot] += g.scale * np.vdot(lam, apply_word(g.word, phi)).imag
        pair = apply_gates(pair, n, [g], params, invert=True)
    return grad


def y_word_circuit(n_qubits, rng, n_gates=16, n_slots=3):
    """Every gate kind, every word with at least one Y (a complex phase i^y):
    Pauli applications, fixed-angle rotations and rotations on shared slots,
    with two basis flips in the middle."""
    gates = []
    for k in range(n_gates):
        x = int(rng.integers(1, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits)) | (x & -x)
        w = PauliWord(n_qubits, x, z)
        kind = k % 4
        if kind == 0:
            gates.append(PauliApply(w))
        elif kind == 1:
            gates.append(PauliRotation(w, angle=float(rng.normal())))
        else:
            gates.append(PauliRotation(w, slot=int(rng.integers(0, n_slots)),
                                       scale=float(rng.choice([-2.0, -1.0, 0.5, 1.5]))))
        if k == n_gates // 2:
            gates += [BasisFlip(int(q)) for q in rng.integers(0, n_qubits, size=2)]
    return Circuit(n_qubits, gates)


# The two tests below once compared bit for bit, while the gradient was the
# gate-by-gate pass itself; the run-level pass sums in another order, so
# they now compare at the parameter-shift tests' 1e-12.

@pytest.mark.parametrize("trial", range(8))
def test_gradient_equals_two_pass_oracle_bit_for_bit(trial):
    rng = np.random.default_rng(1300 + trial)
    n_qubits = int(rng.integers(2, 7))
    h = random_hermitian_sum(n_qubits, rng)
    c = y_word_circuit(n_qubits, rng)
    params = rng.normal(size=c.n_slots)
    np.testing.assert_allclose(gradient(c, h, params), two_pass_gradient(c, h, params),
                               rtol=0, atol=1e-12)


def test_layered_2x2_gradient_equals_two_pass_oracle_bit_for_bit():
    spec, h = hubbard_2x2()
    ref = lowest_diagonal_reference(h, half_filling(spec))
    c = layered_ansatz(hubbard_hv_generator_groups(spec), 3, ref, spec.n_qubits)
    params = 0.2 * np.random.default_rng(7).standard_normal(c.n_slots)
    np.testing.assert_allclose(gradient(c, h, params), two_pass_gradient(c, h, params),
                               rtol=0, atol=1e-12)


def test_anticommuting_same_x_words_split_the_run():
    """X0 X1 and Y0 X1 share an X mask but anticommute, so they compile to
    two runs; the circuit still matches the reference, and the run-level
    gradient, which needs commuting words inside a run, matches the
    parameter-shift rule."""
    xx, yx = PauliWord(3, 0b011, 0), PauliWord(3, 0b011, 0b001)
    c = Circuit(3, [BasisFlip(2), PauliRotation(xx, slot=0), PauliRotation(yx, slot=0, scale=-1.5),
                    PauliRotation(xx, slot=1, scale=0.5), PauliRotation(PauliWord(3, 0b110, 0b100),
                                                                        slot=1)])
    params = np.array([0.7, -0.4])
    compiled = compile_circuit(c, params)
    assert [r.x for r in compiled.layout.runs] == [0b011, 0b011, 0b011, 0b110]
    v = RNG.normal(size=8) + 1j * RNG.normal(size=8)
    np.testing.assert_allclose(compiled.apply(v), apply_gates(v, 3, c.gates, params)[compiled.labels],
                               rtol=0, atol=1e-12)
    h = random_hermitian_sum(3, np.random.default_rng(11))
    np.testing.assert_allclose(gradient(c, h, params), parameter_shift_gradient(c, h, params),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape, layers", [((2, 2), 3), ((2, 3), 1)])
def test_walker_sector_energy_and_gradient_equal_the_full_space_ones(shape, layers):
    spec = HubbardSpec(shape=shape, t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    sector = half_filling(spec)
    ref = lowest_diagonal_reference(h, sector)
    c = layered_ansatz(hubbard_hv_generator_groups(spec), layers, ref, spec.n_qubits)
    params = 0.3 * np.random.default_rng(sum(shape)).standard_normal(c.n_slots)
    walkers = np.sort(sector ^ ref)
    assert circuit_energy(c, h, params, walkers) == pytest.approx(circuit_energy(c, h, params),
                                                                  rel=0, abs=1e-12)
    np.testing.assert_allclose(gradient(c, h, params, walkers), gradient(c, h, params),
                               rtol=0, atol=1e-12)

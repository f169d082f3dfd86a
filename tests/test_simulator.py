import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import PauliWord, apply_gates, basis_state, compile_runs, layered_walkers
from qcfciqmc import simulator
from qcfciqmc.operators import PauliSum, PauliTerm, apply_word, to_dense
from qcfciqmc.simulator import (
    BasisFlip,
    Circuit,
    LeakError,
    PauliApply,
    PauliRotation,
    SimulatorError,
    amplitude_vector,
    apply_circuit,
    circuit_layout,
    compile_circuit,
    expectation,
    transformed_columns,
)


def random_circuit(rng, n_qubits, n_gates):
    labels = "IXYZ"
    gates = []
    for _ in range(n_gates):
        label = "".join(rng.choice(list(labels)) for _ in range(n_qubits))
        w = PauliWord.from_label(label)
        kind = rng.integers(0, 3)
        if kind == 0 and (w.x_mask or w.z_mask):
            gates.append(PauliApply(w))
        elif kind == 1:
            gates.append(BasisFlip(int(rng.integers(0, n_qubits))))
        else:
            gates.append(PauliRotation(w, angle=float(rng.normal())))
    return Circuit(n_qubits, gates)


def dense_unitary(circuit, params=()):
    """Independent oracle: multiply out gate matrices with scipy expm."""
    n = circuit.n_qubits
    dim = 1 << n
    mat = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        if isinstance(g, PauliRotation):
            a = g.angle if g.slot is None else g.scale * params[g.slot]
            gm = expm(-0.5j * a * to_dense(PauliSum([PauliTerm(1.0, g.word)])))
        elif isinstance(g, PauliApply):
            gm = to_dense(PauliSum([PauliTerm(1.0, g.word)]))
        else:
            gm = to_dense(PauliSum([PauliTerm(1.0, PauliWord(n, 1 << g.qubit, 0))]))
        mat = gm @ mat
    return mat


def test_circuit_is_frozen_with_slots_counted_once():
    w = PauliWord.from_label("XY")
    gates = [BasisFlip(0), PauliRotation(w, slot=2), PauliRotation(w, slot=0)]
    c = Circuit(2, gates)
    gates.append(PauliRotation(w, slot=5))  # the circuit keeps its own tuple
    assert c.gates == tuple(gates[:3]) and c.n_slots == 3
    with pytest.raises(AttributeError):
        c.gates = ()
    assert c == Circuit(2, tuple(gates[:3])) and hash(c) == hash(Circuit(2, gates[:3]))


@pytest.mark.parametrize("gate", [BasisFlip(2), BasisFlip(-1),
                                  PauliRotation(PauliWord.from_label("XY"), slot=-1)])
def test_circuit_rejects_a_flip_outside_its_qubits_and_a_negative_slot(gate):
    with pytest.raises(SimulatorError):
        Circuit(2, [BasisFlip(0), gate])


@pytest.mark.parametrize("gate", [
    PauliRotation(PauliWord.from_label("XY"), slot=0, scale=np.inf),
    PauliRotation(PauliWord.from_label("XY"), slot=0, scale=np.nan),
    PauliRotation(PauliWord.from_label("XY"), angle=-np.inf),
    PauliRotation(PauliWord.from_label("XY"), angle=np.nan),
], ids=["inf scale", "nan scale", "inf angle", "nan angle"])
def test_circuit_rejects_a_non_finite_rotation(gate):
    with pytest.raises(SimulatorError, match="must be finite"):
        Circuit(2, [gate])


def test_empty_circuit_identity():
    s = basis_state(3, 5)
    out = apply_circuit(s, Circuit(3))
    np.testing.assert_array_equal(out, s)


def test_z_rotation_on_zero_is_phase():
    c = Circuit(1, [PauliRotation(PauliWord.from_label("Z"), angle=0.77)])
    out = apply_circuit(basis_state(1, 0), c)
    assert abs(abs(out[0]) - 1.0) < 1e-12


def test_y_rotation_half_pi():
    c = Circuit(1, [PauliRotation(PauliWord.from_label("Y"), angle=np.pi / 2)])
    out = apply_circuit(basis_state(1, 0), c)
    oracle = expm(-0.25j * np.pi * np.array([[0, -1j], [1j, 0]])) @ np.array([1, 0])
    np.testing.assert_allclose(out, oracle, atol=1e-12)
    np.testing.assert_allclose(np.abs(out), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_apply_circuit_matches_dense_oracle():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        c = random_circuit(rng, n, 6)
        v0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        v0 /= np.linalg.norm(v0)
        out = apply_circuit(v0.copy(), c)
        np.testing.assert_allclose(out, dense_unitary(c) @ v0, atol=1e-10)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_parametric_slots_and_scale():
    w = PauliWord.from_label("XX")
    c = Circuit(2, [
        PauliRotation(w, slot=0, scale=2.0),
        PauliRotation(PauliWord.from_label("ZI"), slot=1),
        PauliRotation(w, slot=0, scale=-1.0),
    ])
    assert c.n_slots == 2
    params = [0.3, -0.8]
    out = apply_circuit(basis_state(2, 1), c, params)
    np.testing.assert_allclose(
        out,
        dense_unitary(c, params) @ basis_state(2, 1),
        atol=1e-12,
    )
    with pytest.raises(SimulatorError):
        apply_circuit(basis_state(2, 0), c, [0.1])


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=20, deadline=None)
def test_linearity(i, j):
    rng = np.random.default_rng(i * 8 + j)
    c = random_circuit(rng, 3, 5)
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    s1 = basis_state(3, i)
    s2 = basis_state(3, j)
    mixed = a * s1 + b * s2
    lhs = apply_circuit(mixed, c)
    rhs = a * apply_circuit(s1, c) + b * apply_circuit(s2, c)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_round_trip_inverse():
    rng = np.random.default_rng(77)
    c = random_circuit(rng, 3, 8)
    v0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    v0 /= np.linalg.norm(v0)
    out = apply_circuit(v0.copy(), c)
    back = amplitude_vector(out, c)
    fidelity = abs(np.vdot(back, v0)) ** 2
    assert fidelity > 1 - 1e-10


def test_amplitude_vector_contract():
    rng = np.random.default_rng(78)
    c = random_circuit(rng, 2, 5)
    s = rng.normal(size=4) + 1j * rng.normal(size=4)
    # entry j = <j|U^dag|s>
    out = amplitude_vector(s, c)
    oracle = dense_unitary(c).conj().T @ s
    np.testing.assert_allclose(out, oracle, atol=1e-10)
    np.testing.assert_allclose(np.sum(np.abs(out) ** 2), np.linalg.norm(s) ** 2, atol=1e-10)
    # U|i> resolved in the circuit basis is the unit vector at i
    basis = apply_circuit(basis_state(2, 2), c)
    unit = amplitude_vector(basis, c)
    np.testing.assert_allclose(unit, [0, 0, 1, 0], atol=1e-10)


def test_expectation_values():
    z = PauliSum([PauliTerm(1.0, PauliWord.from_label("Z"))])
    assert abs(expectation(basis_state(1, 0), z) - 1.0) < 1e-12
    x = PauliSum([PauliTerm(1.0, PauliWord.from_label("X"))])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(expectation(plus, x) - 1.0) < 1e-12


def test_expectation_matches_dense():
    rng = np.random.default_rng(41)
    labels = ["XYZ", "ZZI", "IXI", "YIY", "III"]
    h = PauliSum([PauliTerm(float(rng.normal()), PauliWord.from_label(l)) for l in labels])
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    oracle = np.vdot(v, to_dense(h) @ v).real
    assert abs(expectation(v, h) - oracle) < 1e-10
    lam = np.linalg.eigvalsh(to_dense(h))
    assert lam[0] - 1e-12 <= expectation(v, h) <= lam[-1] + 1e-12


def test_expectation_rejects_non_hermitian():
    h = PauliSum([PauliTerm(1.0j, PauliWord.from_label("X"))])
    with pytest.raises(SimulatorError):
        expectation(basis_state(1, 0), h)


# ---------------------------------------------------------------------------
# compiled circuits against the gate-by-gate reference
# ---------------------------------------------------------------------------


def run_heavy_circuit(rng, n_qubits, n_gates=14, n_slots=3):
    """Random circuit whose words draw their X masks from a pool of two, so
    equal masks sit both next to each other and apart (the second mask may be
    0, a diagonal run); every gate kind appears: PauliApply with one Y, so a
    complex phase, where the mask is not 0, basis flips in the middle
    (two in a row, on the same qubit or not), fixed-angle rotations, and
    slotted rotations sharing slots."""
    pool = [int(rng.integers(1, 1 << n_qubits)), int(rng.integers(0, 1 << n_qubits))]
    gates = []
    for k in range(n_gates):
        x = pool[int(rng.integers(0, 2))]
        z = int(rng.integers(0, 1 << n_qubits))
        w = PauliWord(n_qubits, x, z)
        kind = k % 4
        if kind == 0:
            gates.append(PauliApply(PauliWord(n_qubits, x, (z & ~x) | (x & -x))))  # phase i^y
        elif kind == 1:
            gates.append(PauliRotation(w, angle=float(rng.normal())))
        else:
            gates.append(PauliRotation(w, slot=int(rng.integers(0, n_slots)),
                                       scale=float(rng.normal())))
        if k == n_gates // 2:
            gates += [BasisFlip(int(q)) for q in rng.integers(0, n_qubits, size=2)]
    return Circuit(n_qubits, gates), rng.normal(size=n_slots)


def per_word_sum(h, vec):
    """Test-only H|v>: one apply_word per term, summed in term order."""
    out = np.zeros(vec.shape, dtype=complex)
    for t in h.terms:
        out += t.coefficient * apply_word(t.word, vec)
    return out


def random_complex_sum(rng, n_qubits, n_terms=6):
    return PauliSum([
        PauliTerm(complex(rng.normal(), rng.normal()),
                  PauliWord(n_qubits, int(rng.integers(0, 1 << n_qubits)),
                            int(rng.integers(0, 1 << n_qubits))))
        for _ in range(n_terms)
    ])


@pytest.mark.parametrize("trial", range(12))
def test_compiled_circuit_matches_per_gate_path(trial):
    rng = np.random.default_rng(500 + trial)
    n = 1 + trial % 4
    c, params = run_heavy_circuit(rng, n)
    compiled = compile_circuit(c, params)
    assert len(compiled.runs) < len(c.gates)  # some gates did compose
    dim = 1 << n
    labels = compiled.labels  # the flips relabel positions instead of moving data
    for shape in ((dim,), (dim, 3)):
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        np.testing.assert_allclose(compiled.apply(v),
                                   apply_gates(v, n, c.gates, params)[labels], atol=1e-12)
        np.testing.assert_allclose(compiled.apply(v[labels], invert=True),
                                   apply_gates(v, n, c.gates, params, invert=True),
                                   atol=1e-12)


@pytest.mark.parametrize("trial", range(12))
def test_transformed_columns_match_per_gate_oracle(trial):
    """The gate-by-gate reference, a per-word H and the reference's inverse
    give every column."""
    rng = np.random.default_rng(700 + trial)
    n = 1 + trial % 4
    c, params = run_heavy_circuit(rng, n)
    if trial % 6 == 5:
        c = Circuit(n, [])
    h = random_complex_sum(rng, n)
    dim = 1 << n
    cols = transformed_columns(h, compile_circuit(c, params), range(dim))
    for i in range(dim):
        state = apply_gates(basis_state(n, i), n, c.gates, params)
        w = per_word_sum(h, state)
        np.testing.assert_allclose(cols[:, i], apply_gates(w, n, c.gates, params, invert=True),
                                   atol=1e-12)


def tail_runs(n_qubits):
    """A run with X mask 0 that mixes a slotted rotation, a PauliApply and a
    fixed-angle rotation, then a lone rotation by -0.0 of X0 times Z on the
    other qubits, whose b holds signed zeros."""
    return (PauliRotation(PauliWord(n_qubits, 0, 1), slot=0, scale=0.7),
            PauliApply(PauliWord(n_qubits, 0, (1 << n_qubits) - 1)),
            PauliRotation(PauliWord(n_qubits, 0, 1 << (n_qubits - 1)), angle=-0.4),
            PauliRotation(PauliWord(n_qubits, 1, (1 << n_qubits) - 2), angle=-0.0))


def lockstep_cases():
    """Run-heavy circuits with `tail_runs` at the end (five of the eight mix
    real and complex runs), the layered ansätze over their walker
    sectors (real runs with edges), and circuits with no run."""
    cases = []
    for trial in range(8):
        rng = np.random.default_rng(900 + trial)
        n = 1 + trial % 4
        c, params = run_heavy_circuit(rng, n)
        cases.append((f"heavy{trial}", Circuit(n, c.gates + tail_runs(n)), params, None))
    for shape, layers, seed in (((2, 2), 3, 7), ((2, 3), 1, 2)):
        _, c, params, walkers = layered_walkers(shape, layers, seed)
        cases.append((f"layered{shape[0]}x{shape[1]}", c, params, walkers))
    cases.append(("empty", Circuit(3, []), (), None))
    cases.append(("flips", Circuit(3, [BasisFlip(0), BasisFlip(2), BasisFlip(0)]), (), None))
    return cases


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("name, c, params, basis", lockstep_cases(),
                         ids=[case[0] for case in lockstep_cases()])
def test_lockstep_compile_is_the_per_run_compose_bit_for_bit(name, c, params, basis):
    """Every run's a and b, real or complex, equal the per-run oracle's to
    the bit, and the kept conjugates are theirs (the arrays themselves for a
    real run)."""
    layout = circuit_layout(c, basis)
    compiled = layout.compile(params)
    oracle = compile_runs(layout, params)
    assert len(compiled.runs) == len(oracle)
    for run, (a, b) in zip(compiled.runs, oracle):
        assert run.a.shape == run.b.shape == (len(layout.basis) + 1, 1)
        for got, want in ((run.a[:, 0], a), (run.b[:, 0], b)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(bits(got), bits(want))
        if run.a.dtype == np.float64:
            assert run.a_conj is run.a and run.b_conj is run.b
        else:
            np.testing.assert_array_equal(bits(run.a_conj), bits(run.a.conj()))
            np.testing.assert_array_equal(bits(run.b_conj), bits(run.b.conj()))
    real = all(a.dtype == np.float64 for a, _ in oracle)
    assert compiled.dtype == (np.float64 if real else np.complex128)


@pytest.mark.parametrize("angle, first", [(0.3, "gate run 0 (gates 0-0, X mask 0x3)"),
                                          (0.0, "gate run 1 (gates 1-2, X mask 0x9)")])
def test_lockstep_compile_names_the_first_leaking_run_in_circuit_order(angle, first):
    """Over the one-up, one-down sector of 4 qubits an X0 Y1 rotation and an
    X0 Y3 / Y0 X3 pair both leave the basis.  The longer second run composes
    first, yet the error names the first leaking run in circuit order, with
    the per-run oracle's message."""
    sector = np.array([i for i in range(16) if bin(i & 0b0101).count("1") == 1
                       and bin(i & 0b1010).count("1") == 1])
    c = Circuit(4, [PauliRotation(PauliWord.from_label("XYII"), angle=angle),
                    PauliRotation(PauliWord.from_label("XIIY"), slot=0),
                    PauliRotation(PauliWord.from_label("YIIX"), slot=0, scale=-0.5)])
    layout = circuit_layout(c, sector)
    with pytest.raises(LeakError) as want:
        compile_runs(layout, [0.4])
    with pytest.raises(LeakError) as got:
        layout.compile([0.4])
    assert str(got.value) == str(want.value) and str(got.value).startswith(first)


def test_lockstep_tables_are_built_once_per_layout(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return lockstep(*args)

    lockstep = simulator._lockstep
    monkeypatch.setattr(simulator, "_lockstep", counted)
    _, c, params, walkers = layered_walkers((2, 2), 3, 7)
    layout = circuit_layout(c, walkers)
    for scale in (1.0, 0.5, -2.0):
        layout.compile(scale * params)
    assert len(built) == 1 and layout.lockstep.widths[0] > layout.lockstep.widths[-1]


def test_compile_rejects_missing_parameters():
    c = Circuit(1, [PauliRotation(PauliWord.from_label("X"), slot=1)])
    with pytest.raises(SimulatorError):
        compile_circuit(c, [0.1])


def test_real_circuit_compiles_to_real_runs():
    """Odd-Y rotations are real orthogonal: runs and columns are float64.
    The leading flip is no run: it relabels the positions."""
    w = PauliWord.from_label("XY")
    c = Circuit(2, [BasisFlip(0), PauliRotation(w, angle=0.3), PauliRotation(w, slot=0)])
    compiled = compile_circuit(c, [0.7])
    assert compiled.dtype == np.float64
    assert len(compiled.runs) == 1 and compiled.runs[0].a.dtype == np.float64
    assert compiled.labels.tolist() == [1, 0, 3, 2]
    h = PauliSum([PauliTerm(0.5, PauliWord.from_label("XX")),
                  PauliTerm(-1.0, PauliWord.from_label("ZI"))])
    assert transformed_columns(h, compiled, [0, 3]).dtype == np.float64


# ---------------------------------------------------------------------------
# compiled over a basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape, layers, seed", [((2, 2), 3, 7), ((2, 3), 1, 2)])
def test_columns_over_the_walker_sector_are_the_full_columns_rows(shape, layers, seed):
    """Columns over a basis are the full-space columns' rows at that basis up
    to the full path's rounding leak: the full columns carry under 1e-13 nu
    outside the walker sector, and some of it comes back.  On the 2x3 circuit
    a few entries of up to 1e-5 nu differ from the full path's in their last
    bit; every difference stays below 1e-15 nu."""
    h, c, params, walkers = layered_walkers(shape, layers, seed)
    full = transformed_columns(h, compile_circuit(c, params), walkers)
    sector = transformed_columns(h, compile_circuit(c, params, walkers), walkers)
    assert sector.shape == (len(walkers), len(walkers)) and sector.dtype == full.dtype
    nu = np.sqrt((np.abs(full) ** 2).sum(axis=0))
    rows = full[walkers]
    assert (np.abs(sector - rows) <= 1e-15 * nu).all()
    assert (sector == rows).mean() > 0.99
    outside = np.ones(len(full), dtype=bool)
    outside[walkers] = False
    assert (np.abs(full[outside]) < 1e-13 * nu).all()


def test_compile_over_a_basis_rejects_a_run_that_leaves_it():
    """A lone X0 Y1 rotation sends |00> to |11> on qubits 0 and 1: over the
    one-up, one-down sector of 4 qubits it cannot compile, and the error
    names the run; the leading flip is a relabelling, not a run."""
    sector = np.array([i for i in range(16) if bin(i & 0b0101).count("1") == 1
                       and bin(i & 0b1010).count("1") == 1])
    xy = PauliRotation(PauliWord.from_label("XYII"), angle=0.3)
    c = Circuit(4, [BasisFlip(2), xy])
    with pytest.raises(LeakError, match=r"gate run 0 \(gates 1-1, X mask 0x3\)"):
        compile_circuit(c, (), np.sort(sector ^ 0b0100))
    assert len(compile_circuit(c).runs) == 1  # the full space is always closed


def test_columns_over_a_basis_reject_a_hamiltonian_that_leaves_it():
    h = PauliSum([PauliTerm(1.0, PauliWord.from_label("ZZ")),
                  PauliTerm(0.5, PauliWord.from_label("XI"))])
    compiled = compile_circuit(Circuit(2, []), (), [0, 3])
    with pytest.raises(LeakError, match="Hamiltonian group with X mask 0x1"):
        transformed_columns(h, compiled, [0])
    with pytest.raises(SimulatorError, match="not in the basis"):
        transformed_columns(PauliSum([h.terms[0]]), compiled, [1])

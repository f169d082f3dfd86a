"""Tests for the matrix-element backends and the per-row records.

Oracle: dense U^dag H U assembled independently from the gate matrices, not
through the package's column plumbing."""

import math

import numpy as np
import pytest

import qcfciqmc.matelem as me
from helpers import layered_walkers
from qcfciqmc.matelem import (
    ElementSource,
    ExactBackend,
    MatelemError,
    SampledBackend,
    SignAmbiguityError,
    diagonal_element,
    element_sign,
    get_element,
    resolved_row,
    row_arrays,
    row_lengths,
    row_magnitudes,
    signed_row,
)
from qcfciqmc.nsi import transformed_dense
from qcfciqmc.operators import PauliSum, PauliTerm, PauliWord, to_dense
from qcfciqmc.simulator import Circuit, PauliRotation


def dense_gate(word: PauliWord, angle: float) -> np.ndarray:
    w = to_dense(PauliSum([PauliTerm(1.0, word)]))
    dim = w.shape[0]
    return np.cos(0.5 * angle) * np.eye(dim) - 1j * np.sin(0.5 * angle) * w


def dense_unitary(circuit: Circuit, params) -> np.ndarray:
    dim = 1 << circuit.n_qubits
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        a = g.angle if g.slot is None else g.scale * params[g.slot]
        u = dense_gate(g.word, a) @ u
    return u


def random_instance(rng, n_qubits=3, n_terms=6, n_gates=4):
    terms = []
    for _ in range(n_terms):
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        terms.append(PauliTerm(float(rng.normal()), PauliWord(n_qubits, x, z)))
    h = PauliSum(terms).simplify()
    gates = []
    for _ in range(n_gates):
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        gates.append(PauliRotation(PauliWord(n_qubits, x, z), angle=float(rng.normal())))
    return h, Circuit(n_qubits, gates)


def dense_transformed(h, circuit, params=()):
    u = dense_unitary(circuit, params)
    return u.conj().T @ to_dense(h) @ u


def real_instance(rng, n_qubits=3, n_terms=6, n_gates=4):
    """Real-symmetric H (even-Y words) and real-orthogonal circuit (odd-Y words),
    so the transformed matrix is real and sign * magnitude recovers it exactly."""
    terms = []
    while len(terms) < n_terms:
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        w = PauliWord(n_qubits, x, z)
        if w.y_count % 2 == 0:
            terms.append(PauliTerm(float(rng.normal()), w))
    h = PauliSum(terms).simplify()
    gates = []
    while len(gates) < n_gates:
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        w = PauliWord(n_qubits, x, z)
        if w.y_count % 2 == 1:
            gates.append(PauliRotation(w, angle=float(rng.normal())))
    return h, Circuit(n_qubits, gates)


def x0_source(coeff, backend=None, seed=0):
    h = PauliSum([PauliTerm(coeff, PauliWord(1, 1, 0))])
    return ElementSource(h, Circuit(1, []), backend=backend, seed=seed)


# ---------------------------------------------------------------------------
# exact backend
# ---------------------------------------------------------------------------


def test_diagonal_h_has_no_connections():
    h = PauliSum([PauliTerm(0.7, PauliWord(2, 0, 0b01)), PauliTerm(-0.2, PauliWord(2, 0, 0b11))])
    src = ElementSource(h, Circuit(2, []))
    for i in range(4):
        assert row_magnitudes(src, i).connections == []


def test_single_off_diagonal_connection():
    src = x0_source(0.5)
    row = row_magnitudes(src, 0)
    assert row.connections == [(1, 0.5)]


def test_element_sign_exact_follows_coefficient():
    assert element_sign(x0_source(-1.0), 0, 1) == -1
    assert element_sign(x0_source(+1.0), 0, 1) == +1


@pytest.mark.parametrize("trial", range(6))
def test_exact_backend_matches_dense_column(trial):
    rng = np.random.default_rng(900 + trial)
    h, circuit = random_instance(rng)
    src = ElementSource(h, circuit)
    hp = dense_transformed(h, circuit)
    dim = 1 << circuit.n_qubits
    i = int(rng.integers(0, dim))
    np.testing.assert_allclose(src.transformed_column(i), hp[:, i], atol=1e-10)


@pytest.mark.parametrize("trial", range(4))
def test_exact_full_matrix_via_get_element(trial):
    """Assembling every element through get_element, each read from its own
    row's record, reproduces dense U^dag H U."""
    rng = np.random.default_rng(40 + trial)
    h, circuit = real_instance(rng)
    src = ElementSource(h, circuit)
    hp = dense_transformed(h, circuit)
    assert np.abs(hp.imag).max() < 1e-12
    dim = 1 << circuit.n_qubits
    built = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            built[j, i] = get_element(src, i, j)
    np.testing.assert_allclose(built, hp.real, atol=1e-10)


@pytest.mark.parametrize("trial", range(4))
def test_transformed_column_is_a_column_of_transformed_dense(trial):
    """nsi's dense H' and the element source's column come from one path."""
    rng = np.random.default_rng(60 + trial)
    h, fixed = real_instance(rng, n_gates=6)
    # the same words as parametric gates, so the parameter path is covered too
    circuit = Circuit(fixed.n_qubits, [
        PauliRotation(g.word, slot=k % 3, scale=1.5) for k, g in enumerate(fixed.gates)
    ])
    params = rng.normal(size=3)
    hp = transformed_dense(h, circuit, params)
    src = ElementSource(h, circuit, params)
    for i in range(1 << circuit.n_qubits):
        assert hp[:, i].tobytes() == src.transformed_column(i).real.tobytes()


def test_probability_conservation():
    rng = np.random.default_rng(77)
    h, circuit = random_instance(rng)
    src = ElementSource(h, circuit)
    dim = 1 << circuit.n_qubits
    for i in range(dim):
        col = src.transformed_column(i)
        total = float(np.vdot(col, col).real)
        # nu^2 = <i|U^dag H^2 U|i> computed independently
        u = dense_unitary(circuit, ())
        hd = to_dense(h)
        e_i = np.zeros(dim, dtype=complex)
        e_i[i] = 1.0
        nu_sq = float(np.real(np.vdot(hd @ u @ e_i, hd @ u @ e_i)))
        assert total == pytest.approx(nu_sq, abs=1e-9)


def test_zero_norm_row_empty():
    h = PauliSum([PauliTerm(0.0, PauliWord(1, 1, 0))])
    src = ElementSource(h, Circuit(1, []))
    assert row_magnitudes(src, 0).connections == []


def test_diagonal_element_identity_circuit():
    rng = np.random.default_rng(3)
    h, _ = random_instance(rng, n_qubits=2)
    src = ElementSource(h, Circuit(2, []))
    hd = to_dense(h)
    for i in range(4):
        assert diagonal_element(src, i) == pytest.approx(float(hd[i, i].real), abs=1e-12)


def test_index_out_of_range():
    src = x0_source(1.0)
    with pytest.raises(MatelemError):
        row_magnitudes(src, 2)


def test_non_hermitian_hamiltonian_rejected():
    h = PauliSum([PauliTerm(1j, PauliWord(1, 1, 0))])
    with pytest.raises(MatelemError):
        ElementSource(h, Circuit(1, []))


# ---------------------------------------------------------------------------
# per-row records
# ---------------------------------------------------------------------------


def test_elements_do_not_depend_on_the_order_rows_are_read():
    """Two sampled sources that resolve the same rows in opposite orders
    serve the same rows and the same elements: H'_ji comes from row i's
    draws alone, whichever row was read first."""
    h, circuit = _sampled_instance()
    backend = SampledBackend(shots_magnitude=10**4, shots_sign=10**3)
    a = ElementSource(h, circuit, backend=backend, seed=5)
    b = ElementSource(h, circuit, backend=backend, seed=5)
    rows = range(1 << circuit.n_qubits)
    for i in rows:
        resolved_row(a, i)
    for i in reversed(rows):
        resolved_row(b, i)
    for i in rows:
        for x, y in zip(resolved_row(a, i), resolved_row(b, i)):
            assert x.tobytes() == y.tobytes()
        for j in rows:
            assert get_element(a, i, j) == get_element(b, i, j)


@pytest.mark.parametrize("backend", [ExactBackend(), SampledBackend(10**4, 10**3)])
def test_second_read_of_a_row_measures_nothing(monkeypatch, backend):
    src = ElementSource(*_sampled_instance(), backend=backend, seed=2)
    columns = []
    real_column = src.transformed_column
    monkeypatch.setattr(src, "transformed_column",
                        lambda i: columns.append(i) or real_column(i))

    def read():
        return ([get_element(src, 0, j) for j in range(8)],
                [x.tobytes() for x in resolved_row(src, 0)])

    first = read()
    assert read() == first
    assert columns == [0]


def test_signed_row_matches_elements():
    rng = np.random.default_rng(11)
    h, circuit = real_instance(rng, n_qubits=2)
    src = ElementSource(h, circuit)
    hp = dense_transformed(h, circuit).real
    for i in range(4):
        row = dict(signed_row(src, i))
        for j in range(4):
            if j == i:
                continue
            expected = hp[j, i] if abs(hp[j, i]) >= 1e-8 else 0.0
            assert row.get(j, 0.0) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("backend", [ExactBackend(), SampledBackend(10**4, 10**3)])
def test_rows_measured_in_descending_order_gather_as_rows_measured_alone(backend):
    """Every row measured in descending position order and then gathered
    ascending reads, in the gather and alone, as in a source that measured
    only that row."""
    h, circuit = _sampled_instance()
    src = ElementSource(h, circuit, backend=backend, seed=6)
    rows = range(1 << circuit.n_qubits)
    for i in reversed(rows):
        row_magnitudes(src, i)
    targets, values = row_arrays(src, rows)
    ends = row_lengths(src, np.asarray(rows)).cumsum()
    for i in rows:
        alone = ElementSource(h, circuit, backend=backend, seed=6)
        in_row = slice(ends[i - 1] if i else 0, ends[i])
        for x, y in zip((targets[in_row], values[in_row]), row_arrays(alone, [i])):
            assert x.tobytes() == y.tobytes()
        for x, y in zip(resolved_row(src, i), resolved_row(alone, i)):
            assert x.tobytes() == y.tobytes()
        assert diagonal_element(src, i) == diagonal_element(alone, i)


def test_row_arrays_into_given_arrays_read_what_the_stored_rows_hold():
    """Gathered into the heads of longer arrays, the rows read as row by
    row from the store, each row's entries as many as its stored length,
    over a selection out of order, with repeats and with an empty row."""
    h = PauliSum([PauliTerm(0.5, PauliWord(2, 0b01, 0)), PauliTerm(0.3, PauliWord(2, 0, 0b11))])
    src = ElementSource(h, Circuit(2, []))
    positions = [3, 0, 3, 2]
    out = (np.full(9, -7, dtype=np.int64), np.full(9, np.nan))
    into = row_arrays(src, positions, out=out)
    assert all(a.base is b for a, b in zip(into, out))
    assert row_lengths(src, np.asarray(positions)).tolist() == [1, 1, 1, 1]
    for targets, values in (row_arrays(src, positions), into):
        assert targets.tolist() == [2, 1, 2, 3]
        assert values.tolist() == [0.5, 0.5, 0.5, 0.5]
    assert out[0][4:].tolist() == [-7] * 5
    diagonal = ElementSource(PauliSum([PauliTerm(0.3, PauliWord(2, 0, 0b11))]), Circuit(2, []))
    assert [len(a) for a in row_arrays(diagonal, [1, 0], out=out)] == [0, 0]
    assert out[0][:4].tolist() == [2, 1, 2, 3]  # nothing written for empty rows


@pytest.mark.parametrize("shape, layers, seed", [((2, 2), 2, 4), ((2, 3), 1, 2)])
@pytest.mark.parametrize("backend", [ExactBackend(), SampledBackend()])
def test_sector_source_measures_what_the_full_space_source_does(shape, layers, seed,
                                                                backend):
    """Over every walker-sector row, a source whose columns run over the
    walker sector measures what the full-space source does: draws are keyed
    by walker index, and row sums are exactly rounded.  The sampled records,
    stored rows and diagonals are byte-identical.  The exact backend keeps
    |H'_ji| as computed, and the full path's rounding leak out of the sector
    and back moves the last bit of a few small ones on the 2x3 circuit (by
    under 1e-20), so there targets, signs and diagonals are compared bytewise
    and magnitudes to 1e-15 of the row's largest."""
    h, circuit, params, walkers = layered_walkers(shape, layers, seed)
    full = ElementSource(h, circuit, params, backend=backend, seed=3)
    sector = ElementSource(h, circuit, params, backend=backend, seed=3, basis=walkers)
    assert len(sector.transformed_column(int(walkers[0]))) == len(walkers)
    exact = isinstance(backend, ExactBackend)
    for i in walkers.tolist():
        a, b = row_magnitudes(full, i), row_magnitudes(sector, i)
        (ta, va), (tb, vb) = resolved_row(full, i), resolved_row(sector, i)
        for x, y in ((a.targets, b.targets), (a.signs, b.signs), (ta, tb),
                     (np.sign(va), np.sign(vb))):
            assert x.tobytes() == y.tobytes()
        for x, y in ((a.mags, b.mags), (np.abs(va), np.abs(vb))):
            if exact:
                assert (np.abs(x - y) <= 1e-15 * x.max(initial=0.0)).all()
            else:
                assert x.tobytes() == y.tobytes()
    # the full-space source keeps walker index i at position i
    row_lengths(full, walkers)
    row_lengths(sector, np.arange(len(walkers)))
    assert full.diagonal[walkers].tobytes() == sector.diagonal.tobytes()


READERS = {
    "get_element": lambda src, i: get_element(src, i, int(src.basis[0])),
    "get_element_diagonal": lambda src, i: get_element(src, i, i),
    "resolved_row": resolved_row,
    "signed_row": signed_row,
    "element_sign": lambda src, i: element_sign(src, i, int(src.basis[0])),
    "diagonal_element": diagonal_element,
    "row_magnitudes": row_magnitudes,
}


def test_sector_source_rejects_rows_outside_its_basis():
    """Every reader by walker index refuses an index outside the basis: the
    first gap after basis[0], the first such index at or above len(basis),
    where a lookup in the len(basis)-entry stores would run off their end,
    2^n and -1."""
    h, circuit, params, walkers = layered_walkers((2, 2), 1, seed=1)
    src = ElementSource(h, circuit, params, basis=walkers)
    row_arrays(src, np.arange(len(walkers)))  # every row measured
    inside = set(walkers.tolist())
    dim = 1 << circuit.n_qubits
    between = next(i for i in range(int(walkers[0]), dim) if i not in inside)
    past = next(i for i in range(len(walkers), dim) if i not in inside)
    for reader in READERS.values():
        for i in (between, past, dim, -1):
            with pytest.raises(MatelemError):
                reader(src, i)


def test_a_row_drawn_again_is_the_row_measured():
    """On a sampled layered 2x2 source with ambiguous signs, a second
    row_magnitudes call draws the record again from its keyed streams: the
    same bytes, and no row added to the store.  element_sign, read from the
    stored row, raises exactly where the record's sign is 0 and returns it
    elsewhere."""
    h, circuit, params, walkers = layered_walkers((2, 2), 1, seed=1)
    src = ElementSource(h, circuit, params, backend=SampledBackend(10**5, 100), seed=4,
                        basis=walkers)
    n_ambiguous = 0
    for i in walkers.tolist():
        first = row_magnitudes(src, i)
        n_measured = src.n_measured
        again = row_magnitudes(src, i)
        assert src.n_measured == n_measured
        for x, y in ((first.targets, again.targets), (first.mags, again.mags),
                     (first.signs, again.signs)):
            assert x.tobytes() == y.tobytes()
        for j, s in zip(first.targets.tolist(), first.signs.tolist()):
            if s == 0:
                n_ambiguous += 1
                with pytest.raises(SignAmbiguityError):
                    element_sign(src, i, j)
            else:
                assert element_sign(src, i, j) == s
    assert n_ambiguous > 0


# ---------------------------------------------------------------------------
# sampled backend
# ---------------------------------------------------------------------------


def test_sampled_backend_deterministic_per_index():
    backend = SampledBackend(shots_magnitude=10**4, shots_sign=10**3)
    a = ElementSource(*_sampled_instance(), backend=backend, seed=9)
    b = ElementSource(*_sampled_instance(), backend=backend, seed=9)
    # same seed: identical draws regardless of query order
    ra = row_magnitudes(a, 2).connections
    get_element(b, 0, 1)
    rb = row_magnitudes(b, 2).connections
    assert ra == rb


def _sampled_instance():
    rng = np.random.default_rng(123)
    return real_instance(rng, n_qubits=3)


def test_sampled_magnitudes_close_at_high_shots():
    h, circuit = _sampled_instance()
    src = ElementSource(h, circuit, backend=SampledBackend(shots_magnitude=10**6), seed=1)
    exact = ElementSource(h, circuit)
    for i in (0, 3, 5):
        est = dict(row_magnitudes(src, i).connections)
        ref = dict(row_magnitudes(exact, i).connections)
        for j, m in ref.items():
            if m < 0.05:
                continue
            assert est[j] == pytest.approx(m, rel=0.05)


def test_sampled_magnitude_unbiased_over_seeds():
    """Mean of the source's |H'_10|^2 estimate, read from row_magnitudes,
    over 200 seeds within 3 combined SE.  At q = 0.8 and 4000 shots the
    entry always clears the 3-SE keep cut, so no draw is dropped."""
    h = PauliSum([PauliTerm(0.6, PauliWord(1, 1, 0)), PauliTerm(0.3, PauliWord(1, 0, 1))])
    shots = 4000
    estimates = []
    for seed in range(200):
        src = ElementSource(
            h, Circuit(1, []), backend=SampledBackend(shots_magnitude=shots), seed=seed
        )
        rec = row_magnitudes(src, 0)
        assert rec.targets.tolist() == [1]
        estimates.append(float(rec.mags[0]) ** 2)
    target = 0.6**2
    mean = np.mean(estimates)
    se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
    assert abs(mean - target) < 3 * se + 1e-12


def test_sampled_sign_reliable_above_tenth_of_nu():
    """Wrong or ambiguous signs are rare at 1e4 shots when |H| > 0.1 nu."""
    h = PauliSum([PauliTerm(-0.4, PauliWord(1, 1, 0)), PauliTerm(0.9, PauliWord(1, 0, 1))])
    wrong = 0
    for seed in range(300):
        src = ElementSource(h, Circuit(1, []), backend=SampledBackend(), seed=seed)
        try:
            if element_sign(src, 0, 1) != -1:
                wrong += 1
        except SignAmbiguityError:
            wrong += 1
    assert wrong == 0


def test_sampled_sign_ambiguous_near_zero():
    """A small real part cannot produce a confident sign.  At 0.01 the
    element is in row 0's magnitude draw, so the sign test itself is what
    comes out ambiguous."""
    h = PauliSum([PauliTerm(0.01, PauliWord(1, 1, 0)), PauliTerm(1.0, PauliWord(1, 0, 1))])
    ambiguous = 0
    for seed in range(50):
        src = ElementSource(h, Circuit(1, []), backend=SampledBackend(shots_sign=100), seed=seed)
        assert row_magnitudes(src, 0).targets.tolist() == [1]
        try:
            element_sign(src, 0, 1)
        except SignAmbiguityError:
            ambiguous += 1
    assert ambiguous >= 45


def test_sampled_get_element_treats_ambiguous_as_zero():
    """At 0.01 the element is in row 0's draw, its sign test is a coin flip
    at 100 shots, and get_element serves it as 0.0."""
    h = PauliSum([PauliTerm(0.01, PauliWord(1, 1, 0)), PauliTerm(1.0, PauliWord(1, 0, 1))])
    src = ElementSource(
        h,
        Circuit(1, []),
        backend=SampledBackend(shots_magnitude=10**6, shots_sign=100),
        seed=0,
    )
    rec = row_magnitudes(src, 0)
    assert rec.targets.tolist() == [1] and rec.signs.tolist() == [0]
    assert get_element(src, 0, 1) == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("make", [
    lambda v: ExactBackend(magnitude_floor=v),
    lambda v: SampledBackend(magnitude_floor=v),
    lambda v: SampledBackend(ambiguity_z=v),
], ids=["exact-magnitude_floor", "sampled-magnitude_floor", "sampled-ambiguity_z"])
def test_backend_cuts_must_be_finite_and_non_negative(make, value):
    """A NaN or infinite cut compares false or true against every element
    and would drop the whole row without an error."""
    with pytest.raises(MatelemError, match="must be finite and non-negative"):
        make(value)


def test_sampled_floor_drops_small_elements():
    h = PauliSum([PauliTerm(0.5, PauliWord(2, 0b01, 0)), PauliTerm(1e-3, PauliWord(2, 0b10, 0))])
    src = ElementSource(
        h, Circuit(2, []), backend=SampledBackend(shots_magnitude=1000, magnitude_floor=0.1),
        seed=4,
    )
    row = dict(row_magnitudes(src, 0).connections)
    assert 1 in row
    assert 2 not in row  # |H| = 1e-3 sits far below the 0.1 floor


@pytest.mark.parametrize("seed", range(4))
def test_magnitude_draw_ignores_roundoff_residue(seed):
    """Entries below RESIDUE_FLOOR * nu never reach the multinomial: moving
    them by up to 1e-16 nu, exact zeros included, leaves every count as it was."""
    rng = np.random.default_rng(300 + seed)
    src = x0_source(0.5, backend=SampledBackend(), seed=seed)
    col = np.zeros(64)
    col[rng.choice(64, size=12, replace=False)] = rng.normal(size=12)
    col[rng.choice(64, size=6, replace=False)] += 1e-17 * rng.normal(size=6)
    nu_sq = float(col @ col)
    below = np.abs(col) < me.RESIDUE_FLOOR * np.sqrt(nu_sq)
    noisy = col.copy()
    noisy[below] += rng.uniform(-1e-16, 1e-16, size=int(below.sum())) * np.sqrt(nu_sq)
    for i in range(3):
        mags, keep = src._draw_magnitudes(i, col, nu_sq)
        mags_noisy, keep_noisy = src._draw_magnitudes(i, noisy, nu_sq)
        assert mags.tobytes() == mags_noisy.tobytes()
        assert (keep == keep_noisy).all()

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PauliWord
from qcfciqmc.operators import (
    FcidumpData,
    FcidumpError,
    FermionSum,
    FermionTerm,
    HubbardSpec,
    OperatorError,
    PauliSum,
    PauliTerm,
    apply_pauli_sum,
    apply_word,
    build_hubbard,
    build_molecular,
    diagonal_entry,
    jordan_wigner,
    parse_fcidump,
    pauli_product,
    serialize_fcidump,
    to_dense,
    word_phases,
)

I2 = np.eye(2)
PX = np.array([[0.0, 1.0], [1.0, 0.0]])
PY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PZ = np.array([[1.0, 0.0], [0.0, -1.0]])
PAULIS = {"I": I2, "X": PX, "Y": PY, "Z": PZ}


def dense_word(label):
    """Independent kron oracle; label index q is qubit q, so q=0 is rightmost."""
    mat = np.eye(1)
    for ch in label:
        mat = np.kron(PAULIS[ch], mat)
    return mat


def dense_fermion(f: FermionSum):
    """Independent JW oracle from explicit ladder matrices with Z strings."""
    n = f.n_modes
    dim = 1 << max(n, 0)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # a|1> = |0> with qubit 0 = LSB

    def ladder(mode, create):
        mat = np.eye(1)
        for q in range(n):
            if q < mode:
                factor = PZ
            elif q == mode:
                factor = lower.T if create else lower
            else:
                factor = I2
            mat = np.kron(factor, mat)
        return mat

    total = np.zeros((dim, dim), dtype=complex)
    for term in f.terms:
        prod = np.eye(dim, dtype=complex)
        for (mode, create) in term.ops:
            prod = prod @ ladder(mode, create)
        total += term.coefficient * prod
    return total


# ---------------------------------------------------------------------------
# Pauli words and products
# ---------------------------------------------------------------------------

def test_product_single_qubit_xy():
    phase, w = pauli_product(PauliWord.from_label("XI"), PauliWord.from_label("YI"))
    assert phase == 1j
    assert w.label() == "ZI"


def test_product_identity():
    w = PauliWord.from_label("XZY")
    ident = PauliWord(3, 0, 0)
    phase, out = pauli_product(w, ident)
    assert phase == 1 and out == w
    phase, out = pauli_product(ident, w)
    assert phase == 1 and out == w


def test_product_zx_xx():
    phase, w = pauli_product(PauliWord.from_label("ZX"), PauliWord.from_label("XX"))
    oracle = dense_word("ZX") @ dense_word("XX")
    np.testing.assert_allclose(phase * dense_word(w.label()), oracle, atol=1e-14)


def test_product_exhaustive_two_qubits():
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
    for la, lb in itertools.product(labels, repeat=2):
        phase, w = pauli_product(PauliWord.from_label(la), PauliWord.from_label(lb))
        np.testing.assert_allclose(
            phase * dense_word(w.label()),
            dense_word(la) @ dense_word(lb),
            atol=1e-14,
            err_msg=f"{la} * {lb}",
        )


@given(st.lists(st.sampled_from("IXYZ"), min_size=3, max_size=3),
       st.lists(st.sampled_from("IXYZ"), min_size=3, max_size=3),
       st.lists(st.sampled_from("IXYZ"), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_product_associative(la, lb, lc):
    a, b, c = (PauliWord.from_label("".join(x)) for x in (la, lb, lc))
    p1, ab = pauli_product(a, b)
    p2, ab_c = pauli_product(ab, c)
    q1, bc = pauli_product(b, c)
    q2, a_bc = pauli_product(a, bc)
    assert ab_c == a_bc
    assert p1 * p2 == q1 * q2


def test_product_rejects_mismatch():
    with pytest.raises(OperatorError):
        pauli_product(PauliWord.from_label("X"), PauliWord.from_label("XX"))


def test_apply_word_matches_dense():
    rng = np.random.default_rng(5)
    for label in ("XYZ", "ZIY", "YYX", "IZI"):
        w = PauliWord.from_label(label)
        mat = dense_word(label)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        np.testing.assert_allclose(apply_word(w, vec), mat @ vec, atol=1e-12)


def test_word_phases_at_labels_are_the_full_phases_there():
    """The compiled circuit reads a word's phases at the labels it needs;
    they equal the full-space phases there bit for bit."""
    rng = np.random.default_rng(6)
    labels = rng.permutation(64)[:20]
    for _ in range(10):
        w = PauliWord(6, int(rng.integers(0, 64)), int(rng.integers(0, 64)))
        assert word_phases(w, labels).tolist() == word_phases(w)[labels].tolist()


def test_hermitian_verdict_matches_is_hermitian():
    real = PauliSum([PauliTerm(0.5, PauliWord(2, 1, 0)), PauliTerm(1j, PauliWord(2, 0, 1)),
                     PauliTerm(-1j, PauliWord(2, 0, 1))])
    assert real.hermitian is real.is_hermitian() is True
    skew = PauliSum([PauliTerm(1j, PauliWord(2, 1, 0))])
    assert skew.hermitian is skew.is_hermitian() is False


def test_label_round_trip():
    for label in ("IXYZ", "ZZZZ", "IIII", "YXIZ"):
        assert PauliWord.from_label(label).label() == label


# ---------------------------------------------------------------------------
# PauliSum
# ---------------------------------------------------------------------------

def test_simplify_merges_and_prunes():
    w = PauliWord.from_label("XZ")
    s = PauliSum([PauliTerm(0.5, w), PauliTerm(0.5, w), PauliTerm(1e-15, PauliWord(2, 0, 0))])
    out = s.simplify()
    assert len(out.terms) == 1
    assert out.terms[0].coefficient == 1.0


def test_to_dense_trivial():
    z0 = PauliSum([PauliTerm(1.0, PauliWord.from_label("Z"))])
    np.testing.assert_allclose(to_dense(z0), np.diag([1.0, -1.0]), atol=1e-15)
    x0 = PauliSum([PauliTerm(0.5, PauliWord.from_label("X"))])
    np.testing.assert_allclose(to_dense(x0), 0.5 * PX, atol=1e-15)


def test_to_dense_trace_identity():
    rng = np.random.default_rng(11)
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=3)]
    picks = rng.choice(len(labels), size=6, replace=False)
    terms = [PauliTerm(float(rng.normal()), PauliWord.from_label(labels[k])) for k in picks]
    terms.append(PauliTerm(0.37, PauliWord(3, 0, 0)))
    h = PauliSum(terms).simplify()
    mat = to_dense(h)
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)
    identity = sum(t.coefficient for t in h.terms if t.word.x_mask == 0 and t.word.z_mask == 0)
    assert abs(np.trace(mat).real - 8 * identity) < 1e-10


def test_to_dense_matches_kron_oracle():
    rng = np.random.default_rng(12)
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
    terms = [PauliTerm(float(rng.normal()), PauliWord.from_label(l)) for l in labels]
    h = PauliSum(terms)
    oracle = sum(t.coefficient * dense_word(t.word.label()) for t in h.terms)
    np.testing.assert_allclose(to_dense(h), oracle, atol=1e-12)


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 4))
    mask = st.integers(0, (1 << n) - 1)
    coeff = st.floats(-2.0, 2.0)
    terms = draw(st.lists(st.tuples(mask, mask, coeff, coeff), min_size=1, max_size=8))
    return PauliSum([PauliTerm(complex(re, im) if im else re, PauliWord(n, x, z))
                     for (x, z, re, im) in terms])


@settings(max_examples=80, deadline=None)
@given(pauli_sums())
def test_to_dense_matches_column_oracle_bit_for_bit(h):
    dim = 1 << h.n_qubits
    oracle = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[j] = 1.0
        oracle[:, j] = apply_pauli_sum(h, basis)
    assert to_dense(h).tobytes() == oracle.tobytes()


def per_word_sum(h, vec):
    """Test-only H|v>: one apply_word per term, summed in term order."""
    out = np.zeros(vec.shape, dtype=complex)
    for t in h.terms:
        out += t.coefficient * apply_word(t.word, vec)
    return out


def scalar_diagonal(h, index):
    """Test-only <i|H|i>: a scalar loop over the x = 0 words."""
    val = 0.0
    for t in h.terms:
        if t.word.x_mask == 0:
            val += np.real(t.coefficient) * (-1) ** (index & t.word.z_mask).bit_count()
    return float(val)


@settings(max_examples=80, deadline=None)
@given(pauli_sums(), st.integers(0, 2**32 - 1))
def test_grouped_apply_matches_per_word_sum(h, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << h.n_qubits
    vec = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    np.testing.assert_allclose(apply_pauli_sum(h, vec), per_word_sum(h, vec), atol=1e-12)
    np.testing.assert_allclose(apply_pauli_sum(h, vec[:, 0]), per_word_sum(h, vec[:, 0]),
                               atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(pauli_sums())
def test_diagonal_entry_matches_scalar_loop_bit_for_bit(h):
    for i in range(1 << h.n_qubits):
        assert np.float64(diagonal_entry(h, i)).tobytes() == \
            np.float64(scalar_diagonal(h, i)).tobytes()


def test_to_dense_respects_limit():
    h = PauliSum([PauliTerm(1.0, PauliWord(13, 0, 0))])
    with pytest.raises(OperatorError):
        to_dense(h)


def test_apply_pauli_sum_matches_dense():
    rng = np.random.default_rng(13)
    labels = ["XYI", "ZZX", "IIZ", "YXY"]
    h = PauliSum([PauliTerm(float(rng.normal()), PauliWord.from_label(l)) for l in labels])
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    np.testing.assert_allclose(apply_pauli_sum(h, vec), to_dense(h) @ vec, atol=1e-12)


# ---------------------------------------------------------------------------
# Jordan-Wigner
# ---------------------------------------------------------------------------

def test_jw_number_operator():
    f = FermionSum([FermionTerm(1.0, ((0, True), (0, False)))], 1)
    out = jordan_wigner(f)
    np.testing.assert_allclose(to_dense(out), (np.eye(2) - PZ) / 2, atol=1e-14)


def test_jw_hopping():
    f = FermionSum(
        [FermionTerm(1.0, ((0, True), (1, False))), FermionTerm(1.0, ((1, True), (0, False)))],
        2,
    )
    out = jordan_wigner(f)
    expect = (dense_word("XX") + dense_word("YY")) / 2
    np.testing.assert_allclose(to_dense(out), expect, atol=1e-14)


def test_jw_empty():
    assert jordan_wigner(FermionSum([], 3)).terms == []


def test_jw_anticommutators():
    n = 4
    for p in range(n):
        for q in range(n):
            ap = FermionSum([FermionTerm(1.0, ((p, False), (q, True)))], n)
            adq = FermionSum([FermionTerm(1.0, ((q, True), (p, False)))], n)
            anti = jordan_wigner(FermionSum(ap.terms + adq.terms, n))
            if p == q:
                assert len(anti.terms) == 1
                t = anti.terms[0]
                assert t.word.x_mask == 0 and t.word.z_mask == 0 and abs(t.coefficient - 1.0) < 1e-12
            else:
                assert anti.terms == []


def test_jw_matches_dense_fermion_oracle():
    rng = np.random.default_rng(21)
    terms = [
        FermionTerm(0.7, ((0, True), (2, False))),
        FermionTerm(0.7, ((2, True), (0, False))),
        FermionTerm(-1.2, ((1, True), (1, False))),
        FermionTerm(0.4, ((0, True), (1, True), (1, False), (0, False))),
    ]
    f = FermionSum(terms, 3)
    np.testing.assert_allclose(to_dense(jordan_wigner(f)), dense_fermion(f), atol=1e-12)


# ---------------------------------------------------------------------------
# Hubbard
# ---------------------------------------------------------------------------

def test_hubbard_term_counts():
    f = build_hubbard(HubbardSpec((1, 2), 1.0, 4.0))
    assert len(f.terms) == 4 * 1 + 2
    f = build_hubbard(HubbardSpec((2, 2), 1.0, 4.0))
    assert len(f.terms) == 4 * 4 + 4
    assert f.n_modes == 8


def test_hubbard_hermitian_and_symmetries():
    f = build_hubbard(HubbardSpec((1, 3), 1.0, 2.5))
    h = jordan_wigner(f)
    assert h.is_hermitian()
    mat = to_dense(h)
    np.testing.assert_allclose(mat.imag, 0.0, atol=1e-12)
    n = f.n_modes
    dim = 1 << n
    idx = np.arange(dim)
    ntot = np.zeros(dim)
    sz = np.zeros(dim)
    for m in range(n):
        occ = (idx >> m) & 1
        ntot = ntot + occ
        sz = sz + (0.5 if m % 2 == 0 else -0.5) * occ
    # H commutes with N and Sz: matrix elements vanish between different sectors
    for arr in (ntot, sz):
        mask = arr[:, None] != arr[None, :]
        assert np.abs(mat[mask]).max() < 1e-12


def test_hubbard_1x2_ground_energy_analytic():
    f = build_hubbard(HubbardSpec((1, 2), 1.0, 4.0))
    mat = to_dense(jordan_wigner(f)).real
    idx = np.arange(16)
    nup = ((idx >> 0) & 1) + ((idx >> 2) & 1)
    ndn = ((idx >> 1) & 1) + ((idx >> 3) & 1)
    sel = np.where((nup == 1) & (ndn == 1))[0]
    evals = np.linalg.eigvalsh(mat[np.ix_(sel, sel)])
    # analytic two-site half-filling ground energy (U - sqrt(U^2 + 16 t^2))/2
    assert abs(evals[0] - (2.0 - 2.0 * np.sqrt(2.0))) < 1e-10


def test_hubbard_periodic_edges_dedupe():
    assert HubbardSpec((1, 2), 1, 1, periodic=True).edges() == [(0, 1)]
    assert HubbardSpec((1, 4), 1, 1, periodic=True).edges() == [
        (0, 1), (0, 3), (1, 2), (2, 3)]
    assert len(HubbardSpec((2, 2), 1, 1, periodic=True).edges()) == 4


def test_hubbard_zero_sites_rejected():
    with pytest.raises(OperatorError):
        build_hubbard(HubbardSpec((0, 2), 1.0, 1.0))


# ---------------------------------------------------------------------------
# FCIDUMP
# ---------------------------------------------------------------------------

SAMPLE = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 0.6744931033260081D+00    1    1    1    1
 0.6634680926761618D+00    2    2    1    1
 0.6973979494693358D+00    2    2    2    2
 0.1812875358123322D+00    2    1    2    1
-0.1252477303982147D+01    1    1    0    0
-0.4759344611440753D+00    2    2    0    0
 0.7137758743754461D+00    0    0    0    0
"""


def test_parse_one_body_line():
    data = parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,\n&END\n0.5 1 1 0 0\n")
    assert data.one_body[(1, 1)] == 0.5


def test_parse_core_line():
    data = parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,\n&END\n1.25 0 0 0 0\n")
    assert data.core_energy == 1.25


def test_parse_sample_and_symmetry():
    data = parse_fcidump(SAMPLE)
    assert data.n_orbitals == 2 and data.n_electrons == 2 and data.ms2 == 0
    assert abs(data.core_energy - 0.7137758743754461) < 1e-15
    # 8-fold symmetry through canonical storage
    v = data.get_eri(2, 1, 2, 1)
    for args in [(1, 2, 1, 2), (1, 2, 2, 1), (2, 1, 1, 2)]:
        assert data.get_eri(*args) == v


def test_parse_accepts_bytes_and_slash_terminator():
    text = "&FCI NORB=1,NELEC=2,MS2=0\n/\n-1.0 1 1 0 0\n"
    data = parse_fcidump(text.encode("ascii"))
    assert data.get_h1(1, 1) == -1.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FcidumpError, match="line 3"):
        parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,\n&END\n0.5 1 1 0\n")
    with pytest.raises(FcidumpError, match="line 3"):
        parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,\n&END\nabc 1 1 0 0\n")
    with pytest.raises(FcidumpError, match="out of range"):
        parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,\n&END\n0.5 2 1 0 0\n")
    with pytest.raises(FcidumpError):
        parse_fcidump("NORB=1\n")


@pytest.mark.parametrize("nelec, ms2", [(3, 0), (2, 1), (2, 4), (2, -4), (-2, 0)])
def test_parse_rejects_nelec_and_ms2_that_disagree(nelec, ms2):
    """MS2 = n_up - n_dn: it shares NELEC's parity and |MS2| <= NELEC."""
    with pytest.raises(FcidumpError, match="MS2"):
        parse_fcidump(f"&FCI NORB=2,NELEC={nelec},MS2={ms2},\n&END\n0.5 1 1 0 0\n")


def test_parse_warns_unknown_header_key():
    with pytest.warns(UserWarning, match="BOGUS"):
        parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,BOGUS=3,\n&END\n0.5 1 1 0 0\n")


def test_round_trip():
    data = parse_fcidump(SAMPLE)
    again = parse_fcidump(serialize_fcidump(data))
    assert again.n_orbitals == data.n_orbitals
    assert again.n_electrons == data.n_electrons
    assert again.ms2 == data.ms2
    assert again.core_energy == data.core_energy
    assert again.one_body == data.one_body
    assert again.two_body == data.two_body


# ---------------------------------------------------------------------------
# Molecular builder
# ---------------------------------------------------------------------------

def test_molecular_matches_integral_oracle():
    data = parse_fcidump(SAMPLE)
    f = build_molecular(data)
    mat = to_dense(jordan_wigner(f))
    oracle = dense_fermion(f)  # same FermionSum, independent matrix route
    np.testing.assert_allclose(mat, oracle, atol=1e-12)
    # independent construction straight from the integral tables
    direct_terms = []
    direct_terms.append(FermionTerm(data.core_energy, ()))
    for p in (1, 2):
        for q in (1, 2):
            v = data.get_h1(p, q)
            if v:
                for sp in (0, 1):
                    direct_terms.append(
                        FermionTerm(v, ((2 * (p - 1) + sp, True), (2 * (q - 1) + sp, False)))
                    )
    for p in (1, 2):
        for q in (1, 2):
            for r in (1, 2):
                for s in (1, 2):
                    v = data.get_eri(p, q, r, s)
                    if v:
                        for sp in (0, 1):
                            for tp in (0, 1):
                                direct_terms.append(
                                    FermionTerm(
                                        0.5 * v,
                                        (
                                            (2 * (p - 1) + sp, True),
                                            (2 * (r - 1) + tp, True),
                                            (2 * (s - 1) + tp, False),
                                            (2 * (q - 1) + sp, False),
                                        ),
                                    )
                                )
    oracle2 = dense_fermion(FermionSum(direct_terms, 4))
    np.testing.assert_allclose(mat, oracle2, atol=1e-12)


def test_molecular_freeze_all():
    data = parse_fcidump(SAMPLE)
    f = build_molecular(data, frozen_orbitals={1})
    # frozen orbital 1, doubly occupied: active space is orbital 2 alone
    expect_core = (
        data.core_energy + 2 * data.get_h1(1, 1) + 2 * data.get_eri(1, 1, 1, 1) - data.get_eri(1, 1, 1, 1)
    )
    const = [t for t in f.terms if t.ops == ()]
    assert len(const) == 1
    assert abs(const[0].coefficient - expect_core) < 1e-12


def test_molecular_frozen_energy_consistency():
    # freezing orbital 1 of the 2-orbital sample must re-create the full ED
    # ground energy when the frozen pair is the dominant occupation; here we
    # check the weaker exact statement: frozen-core H equals the full H
    # restricted to determinants with orbital 1 doubly occupied.
    data = parse_fcidump(SAMPLE)
    full = to_dense(jordan_wigner(build_molecular(data))).real
    frozen = to_dense(jordan_wigner(build_molecular(data, frozen_orbitals={1}))).real
    # full H on 4 modes: modes 0,1 = orbital 1 up/dn; modes 2,3 = orbital 2
    sel = [i | 0b11 for i in (0, 4, 8, 12)]  # orbital-1 pair occupied, orbital 2 free
    sub = full[np.ix_(sel, sel)]
    np.testing.assert_allclose(sub, frozen, atol=1e-12)


def test_molecular_frozen_validation():
    data = parse_fcidump(SAMPLE)
    with pytest.raises(OperatorError):
        build_molecular(data, frozen_orbitals={1, 2})  # 4 frozen electrons > NELEC
    with pytest.raises(OperatorError):
        build_molecular(data, frozen_orbitals={7})

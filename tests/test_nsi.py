import json
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import PauliWord, nsi_initial, nsi_thermal
from qcfciqmc.nsi import (
    NsiError,
    bosonic_form,
    nsi_report,
    split,
    theorem1_bound,
    theorem2_indicator,
    transformed_dense,
    transformed_nsi,
)
from qcfciqmc.operators import (
    HubbardSpec,
    PauliSum,
    PauliTerm,
    build_hubbard,
    jordan_wigner,
    to_dense,
)
from qcfciqmc.simulator import Circuit, PauliRotation


def random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2


def make_stoquastic(rng, dim):
    h = random_symmetric(rng, dim)
    off = h - np.diag(np.diag(h))
    return np.diag(np.diag(h)) - np.abs(off)


# ---------------------------------------------------------------------------
# split / bosonic form
# ---------------------------------------------------------------------------

def test_split_stoquastic_has_no_plus():
    h = make_stoquastic(np.random.default_rng(0), 5)
    s = split(h)
    assert np.all(s.h_plus == 0.0)
    np.testing.assert_array_equal(bosonic_form(s), h)


def test_split_definition_2x2():
    s = split(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(s.h_plus, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(s.h_minus, np.zeros((2, 2)))
    assert s.alpha == 0.0
    np.testing.assert_array_equal(bosonic_form(s), [[0, -1], [-1, 0]])


def test_split_reconstructs_exactly():
    rng = np.random.default_rng(1)
    for _ in range(10):
        h = random_symmetric(rng, 4)
        s = split(h)
        np.testing.assert_array_equal(s.h_plus + s.h_minus, h)
        assert np.all(np.diag(s.h_plus) == 0.0)
        assert np.all(s.h_plus >= 0.0)
        assert s.alpha == np.diag(h).max()


def test_split_subtolerance_noise_stays_in_minus():
    h = np.array([[0.0, 1e-14], [1e-14, 0.0]])
    s = split(h)
    assert np.all(s.h_plus == 0.0)
    np.testing.assert_array_equal(s.h_minus, h)


def test_split_rejects_complex():
    with pytest.raises(NsiError):
        split(np.array([[0.0, 1.0j], [-1.0j, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected(bad):
    """A NaN fails every comparison, so the symmetry test alone lets it
    through, and the report would blame a thermal-trace overflow."""
    h = np.eye(3)
    h[0, 2] = h[2, 0] = bad
    for call in (split, lambda m: nsi_report(m, 0.1, phi0=0),
                 lambda m: theorem2_indicator(m, 0)):
        with pytest.raises(NsiError, match="non-finite entries"):
            call(h)


def test_bosonic_lower_bounds_ground_energy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = random_symmetric(rng, 4)
        tilde = bosonic_form(split(h))
        assert np.linalg.eigvalsh(tilde)[0] <= np.linalg.eigvalsh(h)[0] + 1e-12


# ---------------------------------------------------------------------------
# thermal / initial indicators
# ---------------------------------------------------------------------------

def test_nsi_thermal_zero_cases():
    rng = np.random.default_rng(3)
    assert abs(nsi_thermal(make_stoquastic(rng, 5), 0.3)) < 1e-10
    assert abs(nsi_thermal(np.diag([0.3, -1.0, 2.0]), 0.5)) < 1e-12
    # sign-symmetric two-state case: spectra of H and H~ coincide
    assert abs(nsi_thermal(np.array([[0.0, 0.8], [0.8, 0.0]]), 0.7)) < 1e-12


def test_nsi_thermal_bipartite_gauge_is_zero_and_triangle_is_not():
    g = 0.9
    path = np.array([[0, g, 0], [g, 0, g], [0, g, 0]], dtype=float)
    assert abs(nsi_thermal(path, 0.4)) < 1e-12
    mixed = np.array([[0, g, 0], [g, 0, -g], [0, -g, 0]], dtype=float)
    assert abs(nsi_thermal(mixed, 0.4)) < 1e-12
    # odd loop with all-positive couplings cannot be gauged away
    tri = g * (np.ones((3, 3)) - np.eye(3))
    assert nsi_thermal(tri, 0.4) > 1e-3


def sparse_gauge_stoquastic(rng, dim):
    """D S D for a sparse stoquastic S and a random sign gauge D.  Its positive
    off-diagonal entries join the parts d = 1 and d = -1, and H~ = D H D, so
    both indicators are exactly 0 at every beta and phi0."""
    mask = np.triu(rng.random((dim, dim)) < 0.3, 1)
    h = make_stoquastic(rng, dim) * (mask | mask.T | np.eye(dim, dtype=bool))
    d = rng.choice([-1.0, 1.0], size=dim)
    return d[:, None] * h * d[None, :]


def test_indicators_below_the_rounding_bound_read_zero():
    """Roundoff leaves values of either sign in the two traces; the report
    gives 0.0 for them, so the average sign is 1 and the free-energy gap 0."""
    rng = np.random.default_rng(12)
    for k in range(200):
        rep = nsi_report(sparse_gauge_stoquastic(rng, 8), (0.1, 1.0, 5.0)[k % 3], phi0=k % 8)
        assert (rep.s_thermal, rep.s_initial, rep.avg_sign, rep.delta_f) == (0.0, 0.0, 1.0, 0.0), k


def test_unresolved_initial_indicator_reads_none():
    """phi0 sits alone at the top of a sparse gauge-stoquastic spectrum, so
    s_initial is exactly 0 and q_h under the common shift is about 1e-36:
    the rounding bound over q_h exceeds 1, not one digit of s_initial is
    resolved, and the report gives None (null in nsi.json), not 0.0."""
    h = sparse_gauge_stoquastic(np.random.default_rng(3), 16)
    top = 15
    h[top, :] = h[:, top] = 0.0
    h[top, top] = np.abs(h).sum() + 1.0
    e0 = np.linalg.eigvalsh(h)[0]
    beta = 83.0 / (h[top, top] - e0)
    rep = nsi_report(h, beta, phi0=top)
    assert rep.s_initial is None and rep.s_thermal == 0.0
    assert json.loads(json.dumps(rep.to_dict()))["s_initial"] is None
    assert nsi_report(h, beta, phi0=0).s_initial == 0.0


def test_nsi_thermal_matches_expm_traces():
    """s_thermal against Tr expm(-beta H~) / Tr expm(-beta H) - 1 from
    scipy's Pade exponentials of the two matrices."""
    rng = np.random.default_rng(14)
    for dim in (3, 6, 10):
        for beta in (0.1, 0.7, 2.0):
            h = random_symmetric(rng, dim)
            tilde = bosonic_form(split(h))
            z_h, z_t = np.trace(expm(-beta * h)), np.trace(expm(-beta * tilde))
            assert abs(nsi_thermal(h, beta) - (z_t - z_h) / z_h) < 1e-10 * (z_t / z_h)


def test_nsi_thermal_nonnegative_property():
    rng = np.random.default_rng(4)
    for _ in range(50):
        h = random_symmetric(rng, 4)
        assert nsi_thermal(h, 0.2) >= -1e-10


def test_nsi_initial_zero_cases():
    rng = np.random.default_rng(5)
    h = make_stoquastic(rng, 4)
    for k in range(4):
        assert abs(nsi_initial(h, k, 0.3)) < 1e-10
    # basis state that is an exact eigenvector: column diagonal
    h2 = random_symmetric(rng, 4)
    h2[0, 1:] = 0.0
    h2[1:, 0] = 0.0
    assert abs(nsi_initial(h2, 0, 0.5)) < 1e-10


def test_nsi_initial_series_oracle():
    rng = np.random.default_rng(6)
    h = random_symmetric(rng, 4)
    h *= 0.9 / np.linalg.norm(h, 2)
    beta = 1.0
    tilde = bosonic_form(split(h))

    def q(m, k):
        acc = np.zeros_like(m)
        power = np.eye(m.shape[0])
        for n in range(21):
            acc = acc + power * (-beta) ** n / math.factorial(n)
            power = power @ m
        return acc[k, k]

    for k in range(4):
        oracle = (q(tilde, k) - q(h, k)) / q(h, k)
        assert abs(nsi_initial(h, k, beta) - oracle) < 1e-8
        assert nsi_initial(h, k, beta) >= -1e-10


# ---------------------------------------------------------------------------
# theorem bounds
# ---------------------------------------------------------------------------

def test_theorem1_trivial_cases():
    rng = np.random.default_rng(7)
    s = split(make_stoquastic(rng, 4))
    assert theorem1_bound(s, 0.3) == 0.0
    s2 = split(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(theorem1_bound(s2, 0.1) - 2.0 * math.sinh(0.2)) < 1e-14


def test_theorem1_dominance_random():
    rng = np.random.default_rng(8)
    for dim in (4, 8):
        for _ in range(40):
            h = random_symmetric(rng, dim)
            s = split(h)
            for beta in (0.05, 0.1, 0.5):
                assert theorem1_bound(s, beta) >= nsi_thermal(h, beta) - 1e-12


def test_theorem1_overflow_flag():
    big = 500.0 * (np.ones((4, 4)) - np.eye(4)) + np.diag([1e4, 0, 0, 0])
    s = split(big)
    assert theorem1_bound(s, 5.0) == math.inf


def test_theorem2_trivial_and_identity():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert theorem2_indicator(h, 0) == 1.0
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = random_symmetric(rng, 5)
        for k in range(5):
            e = np.zeros(5)
            e[k] = 1.0
            var = e @ m @ m @ e - (e @ m @ e) ** 2
            assert abs(theorem2_indicator(m, k) - var) < 1e-10


def test_theorem2_zero_iff_eigenvector():
    rng = np.random.default_rng(10)
    h = random_symmetric(rng, 4)
    h[2, :] = 0.0
    h[:, 2] = 0.0
    h[2, 2] = -1.3
    assert theorem2_indicator(h, 2) == 0.0
    e = np.zeros(4)
    e[2] = 1.0
    np.testing.assert_allclose(h @ e, -1.3 * e, atol=1e-14)
    # and a state with off-diagonal coupling is not an eigenvector
    h2 = random_symmetric(rng, 4) + np.diag([5.0, 0, 0, 0])
    if abs(h2[1, 0]) > 1e-9:
        assert theorem2_indicator(h2, 0) > 0.0


# ---------------------------------------------------------------------------
# reports and transformed bases
# ---------------------------------------------------------------------------

def test_report_relations():
    rng = np.random.default_rng(11)
    h = random_symmetric(rng, 6)
    rep = nsi_report(h, 0.2, phi0=3)
    assert abs(rep.avg_sign * (1.0 + rep.s_thermal) - 1.0) < 1e-15
    assert abs(rep.delta_f - math.log1p(rep.s_thermal) / 0.2) < 1e-15
    assert rep.theorem1_bound >= rep.s_thermal
    assert 0.0 < rep.avg_sign <= 1.0 + 1e-12
    d = rep.to_dict()
    assert set(d) >= {"beta", "s_thermal", "theorem1_bound", "avg_sign",
                      "delta_f", "l1_h_plus", "l1_alpha_minus_h_minus",
                      "s_initial", "theorem2_indicator"}


@pytest.mark.parametrize("seed", range(4))
def test_report_norms_equal_their_definitions_bit_for_bit(seed):
    """The L1 norms and the Theorem-1 bound of a report equal the sums over
    H_plus and alpha I - H_minus built as matrices, to the last bit."""
    rng = np.random.default_rng(seed)
    h = np.round(random_symmetric(rng, 9), 1)  # exact zeros off and on the diagonal
    sp = split(h)
    rep = nsi_report(h, 0.7)
    assert rep.l1_h_plus == float(np.abs(sp.h_plus).sum())
    assert rep.l1_alpha_minus_h_minus == float(np.abs(sp.alpha * np.eye(9) - sp.h_minus).sum())
    assert rep.theorem1_bound == theorem1_bound(sp, 0.7)


def test_report_diagonalizes_h_and_bosonic_form_once_each(monkeypatch):
    from qcfciqmc import nsi

    rng = np.random.default_rng(13)
    h = random_symmetric(rng, 6)
    s_th, s_init = nsi_thermal(h, 0.3), nsi_initial(h, 2, 0.3)
    seen = []
    diagonalize = nsi.exactdiag.diagonalize
    monkeypatch.setattr(nsi.exactdiag, "diagonalize", lambda m: seen.append(m) or diagonalize(m))
    rep = nsi_report(h, 0.3, phi0=2)
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[0], h)
    np.testing.assert_array_equal(seen[1], bosonic_form(split(h)))
    # the same spectra as the stand-alone indicators, so the same bits
    assert (rep.s_thermal, rep.s_initial) == (s_th, s_init)


def test_report_frees_each_eigenvector_matrix_before_the_next_eigensolve(monkeypatch):
    """Only the eigenvalues and one squared eigenvector row outlive each
    diagonalization, so H's eigenvector matrix is gone while H~ is
    diagonalized: a view of its row phi0 would keep the whole matrix alive."""
    from qcfciqmc import nsi

    diagonalize = nsi.exactdiag.diagonalize
    refs = []

    def watched(m):
        assert all(ref() is None for ref in refs)
        spec = diagonalize(m)
        refs.append(weakref.ref(spec.eigenvectors))
        return spec

    monkeypatch.setattr(nsi.exactdiag, "diagonalize", watched)
    rep = nsi_report(random_symmetric(np.random.default_rng(15), 7), 0.3, phi0=4)
    assert len(refs) == 2 and rep.s_initial is not None


@pytest.mark.parametrize("phi0", [-1, 6])
def test_report_rejects_phi0_out_of_range_before_any_eigensolve(monkeypatch, phi0):
    from qcfciqmc import nsi

    monkeypatch.setattr(nsi.exactdiag, "diagonalize", None)
    with pytest.raises(NsiError, match="phi0 out of range"):
        nsi_report(random_symmetric(np.random.default_rng(16), 6), 0.3, phi0=phi0)


def test_transformed_identity_is_bit_identical():
    rng = np.random.default_rng(12)
    labels = ["XXI", "ZIZ", "IYY", "ZZZ", "XIX"]
    h = PauliSum([PauliTerm(float(rng.normal()), PauliWord.from_label(l)) for l in labels])
    hp = transformed_dense(h, Circuit(3), ())
    direct = to_dense(h)
    assert np.abs(direct.imag).max() < 1e-12
    assert np.array_equal(hp, direct.real)
    rep_t = transformed_nsi(h, Circuit(3), (), 0.25, phi0=1)
    rep_d = nsi_report(direct.real, 0.25, phi0=1)
    assert rep_t.s_thermal == rep_d.s_thermal
    assert rep_t.theorem1_bound == rep_d.theorem1_bound
    assert rep_t.s_initial == rep_d.s_initial


def test_transformed_diagonalizing_unitary_kills_nsi():
    # U = exp(-i pi/4 Y) diagonalizes X: U^dag X U = Z
    h = PauliSum([PauliTerm(0.7, PauliWord.from_label("X"))])
    u = Circuit(1, [PauliRotation(PauliWord.from_label("Y"), angle=np.pi / 2)])
    hp = transformed_dense(h, u, ())
    np.testing.assert_allclose(hp, np.diag([0.7, -0.7]), atol=1e-12)
    rep = transformed_nsi(h, u, (), 0.3)
    assert abs(rep.s_thermal) < 1e-12
    # while the identity basis sees a (gauge-trivial) off-diagonal matrix
    rep_id = transformed_nsi(h, Circuit(1), (), 0.3)
    assert rep_id.l1_h_plus > 0.0


def test_transformed_rejects_complex_basis():
    h = PauliSum([PauliTerm(1.0, PauliWord.from_label("X"))])
    u = Circuit(1, [PauliRotation(PauliWord.from_label("Z"), angle=0.3)])
    with pytest.raises(NsiError, match="imaginary residue"):
        transformed_dense(h, u, ())


def test_transformed_dense_over_a_sector_is_the_full_block(monkeypatch):
    """Over a sorted basis the builder returns the full-space H' restricted
    to it, and the one dimension limit counts the basis, not the qubits."""
    from qcfciqmc import nsi
    from qcfciqmc.exactdiag import number_sector_indices, project_to_sector
    from qcfciqmc.vqa import hubbard_hv_generator_groups, layered_ansatz

    spec = HubbardSpec((1, 3), 1.0, 4.0)
    h = jordan_wigner(build_hubbard(spec))
    sector = number_sector_indices(6, n_up=2, n_dn=1)
    ref = int(sector[0])
    circuit = layered_ansatz(hubbard_hv_generator_groups(spec), 1, ref, 6)
    params = 0.3 * np.random.default_rng(5).standard_normal(circuit.n_slots)
    walkers = np.sort(sector ^ ref)
    block = transformed_dense(h, circuit, params, basis=walkers)
    full = transformed_dense(h, circuit, params)
    np.testing.assert_allclose(block, project_to_sector(full, walkers), rtol=0, atol=1e-12)
    monkeypatch.setattr(nsi, "DENSE_DIM_LIMIT", len(walkers))
    assert transformed_dense(h, circuit, params, basis=walkers).shape == block.shape
    with pytest.raises(NsiError, match="dimension 64 exceeds dense limit 9"):
        transformed_dense(h, circuit, params)


def test_hubbard_1x2_identity_basis_is_sign_free():
    # the 1x2 lattice JW matrix has gauge-trivial sign structure: its thermal
    # NSI vanishes identically, so no circuit basis can be strictly below it
    # (see decisions ledger on the corresponding spec example)
    h = to_dense(jordan_wigner(build_hubbard(HubbardSpec((1, 2), 1.0, 4.0)))).real
    assert abs(nsi_thermal(h, 0.1)) < 1e-12
    rep = nsi_report(h, 0.1)
    assert rep.avg_sign > 1.0 - 1e-12

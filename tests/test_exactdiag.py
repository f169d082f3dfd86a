import math

import numpy as np
import pytest
from scipy.linalg import expm

from qcfciqmc import exactdiag
from qcfciqmc.exactdiag import (
    ExactDiagError,
    Spectrum,
    diagonalize,
    matrix_exponential_quadratic,
    number_sector_indices,
    project_to_sector,
    thermal_trace,
)
from qcfciqmc.operators import HubbardSpec, build_hubbard, jordan_wigner, to_dense


def random_hermitian(rng, dim, real=False):
    a = rng.normal(size=(dim, dim))
    if not real:
        a = a + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_diagonal_matrix():
    spec = diagonalize(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
    assert spec.ground_energy() == 1.0


def test_hubbard_1x2_half_filling_sector():
    h = to_dense(jordan_wigner(build_hubbard(HubbardSpec((1, 2), 1.0, 4.0)))).real
    sel = number_sector_indices(4, n_up=1, n_dn=1)
    assert len(sel) == 4
    spec = diagonalize(project_to_sector(h, sel))
    assert abs(spec.ground_energy() - (2.0 - 2.0 * math.sqrt(2.0))) < 1e-10


def test_reconstruction():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 12)
    spec = diagonalize(h)
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.abs(rebuilt - h).max() < 1e-8 * np.abs(h).max()
    for k in range(12):
        resid = h @ spec.eigenvectors[:, k] - spec.eigenvalues[k] * spec.eigenvectors[:, k]
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(h)


def test_phase_convention():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 6)
    spec = diagonalize(h)
    for k in range(6):
        col = spec.eigenvectors[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real > 0
    # real symmetric input keeps real eigenvectors
    spec_r = diagonalize(random_hermitian(rng, 6, real=True))
    assert not np.iscomplexobj(spec_r.eigenvectors)


def test_rejects_non_hermitian_and_overflow(monkeypatch):
    with pytest.raises(ExactDiagError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    monkeypatch.setattr(exactdiag, "DENSE_DIM_LIMIT", 4)
    with pytest.raises(ExactDiagError):
        diagonalize(np.eye(8))


def test_thermal_trace_trivial():
    spec = diagonalize(np.diag([0.0, 2.0]))
    assert thermal_trace(spec, 0.0) == 2.0
    beta = 0.7
    assert abs(thermal_trace(spec, beta) - (1.0 + math.exp(-beta * 2.0))) < 1e-14
    with pytest.raises(ExactDiagError):
        thermal_trace(spec, -0.1)


def test_thermal_trace_series_oracle():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 5, real=True)
    h *= 0.9 / np.linalg.norm(h, 2)
    beta = 1.0  # ||beta H|| < 1
    series = sum(
        (-beta) ** n * np.trace(np.linalg.matrix_power(h, n)) / math.factorial(n)
        for n in range(21)
    )
    assert abs(thermal_trace(diagonalize(h), beta) - series.real) < 1e-8


def test_thermal_trace_monotone_after_shift():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 6, real=True)
    spec = diagonalize(h)
    lam0 = spec.ground_energy()
    shifted = Spectrum(spec.eigenvalues - lam0, spec.eigenvectors)
    vals = [thermal_trace(shifted, b) for b in (0.0, 0.5, 1.0, 2.0)]
    assert all(vals[k + 1] <= vals[k] + 1e-12 for k in range(3))


def test_quadratic_eigenvector_case():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 5)
    spec = diagonalize(h)
    v = spec.eigenvectors[:, 2]
    beta = 0.35
    expect = math.exp(-beta * spec.eigenvalues[2])
    assert abs(matrix_exponential_quadratic(spec, v, beta) - expect) < 1e-10
    assert abs(matrix_exponential_quadratic(spec, v, 0.0) - 1.0) < 1e-12


def test_quadratic_matches_expm_oracle():
    rng = np.random.default_rng(10)
    h = random_hermitian(rng, 6)
    spec = diagonalize(h)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    beta = 0.8
    oracle = np.vdot(v, expm(-beta * h) @ v).real
    assert abs(matrix_exponential_quadratic(spec, v, beta) - oracle) < 1e-8
    with pytest.raises(ExactDiagError):
        matrix_exponential_quadratic(spec, v * 2.0, beta)
    with pytest.raises(ExactDiagError):
        matrix_exponential_quadratic(spec, v[:4], beta)


def test_sector_indices_counts():
    # 4 modes (2 sites): N_up=1, N_dn=1 gives 2*2 states
    assert len(number_sector_indices(4, n_up=1, n_dn=1)) == 4
    # 8 modes: half filling sector C(4,2)^2 = 36
    assert len(number_sector_indices(8, n_up=2, n_dn=2)) == 36
    assert len(number_sector_indices(8, n_total=4)) == 70
    free = number_sector_indices(4)
    assert len(free) == 16

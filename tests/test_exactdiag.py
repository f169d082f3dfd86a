import math

import numpy as np
import pytest

from qcfciqmc import exactdiag
from qcfciqmc.exactdiag import (
    ExactDiagError,
    diagonalize,
    number_sector_indices,
    project_to_sector,
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


def test_real_input_gives_real_eigenvectors():
    spec = diagonalize(random_hermitian(np.random.default_rng(4), 6, real=True))
    assert not np.iscomplexobj(spec.eigenvectors)


def test_rejects_non_hermitian_and_overflow(monkeypatch):
    with pytest.raises(ExactDiagError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    monkeypatch.setattr(exactdiag, "DENSE_DIM_LIMIT", 4)
    with pytest.raises(ExactDiagError):
        diagonalize(np.eye(8))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_rejects_non_finite_entries(bad, dtype):
    """A NaN fails every comparison, so the Hermitian test alone lets it
    through to eigh, which returns NaN eigenvalues without a word."""
    h = np.eye(3, dtype=dtype)
    h[1, 1] = bad
    with pytest.raises(ExactDiagError, match="non-finite entries"):
        diagonalize(h)


def test_sector_indices_counts():
    # 4 modes (2 sites): N_up=1, N_dn=1 gives 2*2 states
    assert len(number_sector_indices(4, n_up=1, n_dn=1)) == 4
    # 8 modes: half filling sector C(4,2)^2 = 36
    assert len(number_sector_indices(8, n_up=2, n_dn=2)) == 36
    # 8 modes, 4 particles of either spin: C(8,4) = 70
    assert sum(len(number_sector_indices(8, n_up=k, n_dn=4 - k)) for k in range(5)) == 70
    free = number_sector_indices(4)
    assert len(free) == 16

"""Dense Hermitian eigendecomposition and particle-number sectors.

Used as the verification oracle for VQE / FCIQMC energies and as the engine
behind the non-stoquasticity indicators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DENSE_DIM_LIMIT


class ExactDiagError(ValueError):
    pass


@dataclass
class Spectrum:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # unitary, columns

    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def diagonalize(h: np.ndarray) -> Spectrum:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ExactDiagError("need a square matrix")
    if h.shape[0] > DENSE_DIM_LIMIT:
        raise ExactDiagError(f"dimension {h.shape[0]} exceeds dense limit {DENSE_DIM_LIMIT}")
    scale = np.abs(h).max()
    if not np.isfinite(scale):  # a NaN would fail every comparison below
        raise ExactDiagError("matrix has non-finite entries")
    if np.abs(h - h.conj().T).max() > 1e-10 * max(scale, 1.0):
        raise ExactDiagError("matrix is not Hermitian to 1e-10")
    return Spectrum(*np.linalg.eigh(h))


def number_sector_indices(n_modes: int, n_up=None, n_dn=None) -> np.ndarray:
    """Basis indices with fixed particle content; spin up = even modes.

    n_up or n_dn may be None to leave that count free."""
    idx = np.arange(1 << n_modes, dtype=np.int64)
    up = np.zeros(idx.shape, dtype=np.int64)
    dn = np.zeros(idx.shape, dtype=np.int64)
    for m in range(n_modes):
        occ = (idx >> m) & 1
        if m % 2 == 0:
            up += occ
        else:
            dn += occ
    keep = np.ones(idx.shape, dtype=bool)
    if n_up is not None:
        keep &= up == n_up
    if n_dn is not None:
        keep &= dn == n_dn
    return idx[keep]


def project_to_sector(h: np.ndarray, indices: np.ndarray) -> np.ndarray:
    return np.asarray(h)[np.ix_(indices, indices)]

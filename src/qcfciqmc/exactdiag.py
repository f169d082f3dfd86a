"""Dense Hermitian eigendecomposition plus thermal-trace helpers.

Used as the verification oracle for VQE / FCIQMC energies and as the engine
behind the non-stoquasticity indicators.  Eigenvector phases follow a fixed
convention (largest-magnitude entry real positive) so outputs are reproducible.
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

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def diagonalize(h: np.ndarray) -> Spectrum:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ExactDiagError("need a square matrix")
    if h.shape[0] > DENSE_DIM_LIMIT:
        raise ExactDiagError(f"dimension {h.shape[0]} exceeds dense limit {DENSE_DIM_LIMIT}")
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > 1e-10 * scale:
        raise ExactDiagError("matrix is not Hermitian to 1e-10")
    evals, evecs = np.linalg.eigh(h)
    # phase convention: largest-magnitude entry of each column real positive
    for k in range(evecs.shape[1]):
        col = evecs[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            evecs[:, k] = col * (np.conj(pivot) / abs(pivot))
    if not np.iscomplexobj(h):
        evecs = evecs.real
    return Spectrum(evals, evecs)


def thermal_trace(spec: Spectrum, beta: float, shift: float = 0.0) -> float:
    """Tr exp(-beta (H - shift)).  Callers pass a common shift for ratios."""
    if beta < 0:
        raise ExactDiagError("beta must be non-negative")
    return float(np.exp(-beta * (spec.eigenvalues - shift)).sum())


def matrix_exponential_quadratic(
    spec: Spectrum, v: np.ndarray, beta: float, shift: float = 0.0
) -> float:
    """<v| exp(-beta (H - shift)) |v> for a normalized vector v."""
    v = np.asarray(v)
    if v.shape[0] != spec.dim:
        raise ExactDiagError("vector dimension mismatch")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ExactDiagError("vector must be normalized")
    overlaps = spec.eigenvectors.conj().T @ v
    return float(np.exp(-beta * (spec.eigenvalues - shift)) @ (np.abs(overlaps) ** 2))


def number_sector_indices(n_modes: int, n_up=None, n_dn=None, n_total=None) -> np.ndarray:
    """Basis indices with fixed particle content; spin up = even modes.

    Any of n_up / n_dn / n_total may be None to leave that count free."""
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
    if n_total is not None:
        keep &= (up + dn) == n_total
    return idx[keep]


def project_to_sector(h: np.ndarray, indices: np.ndarray) -> np.ndarray:
    return np.asarray(h)[np.ix_(indices, indices)]

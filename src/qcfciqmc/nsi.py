"""Non-stoquasticity indicators, theorem bounds, and basis-transformed reports.

The sign problem of a real-symmetric H in a given walker basis is quantified by
comparing H against its bosonic form H~ = H_minus - H_plus, where H_plus holds
the positive off-diagonal entries (the sign-problematic ones) and H_minus the
rest.  The thermal indicator,

    s_thermal = (Tr exp(-beta H~) - Tr exp(-beta H)) / Tr exp(-beta H),

vanishes iff the walker dynamics is sign-free in this measure; 1/(1+s) is the
average sign.  An initial-state variant conditions both traces on a reference
basis state.  Both indicators are >= 0, because every power-series term of
exp(-beta H~) dominates that of exp(-beta H) entrywise, so a value below the
rounding bound of the traces is reported as 0.0: the average sign is at
most 1 and the free-energy gap at least 0.  When that bound, relative to the
initial-state quadratic form, reaches 1, no digit of the initial-state
indicator is resolved, and it is reported as None (null in JSON).  Everything
here is exact (dense eigendecomposition), a desk-scale diagnostic.
`transformed_dense` is the one dense builder of H' = U^dag H U; the command
line builds it over the walker sector (the particle-number sector the walkers
never leave), where phi0 is a row position.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import exactdiag
from .operators import DENSE_DIM_LIMIT, PauliSum
from .simulator import Circuit, compile_circuit, transformed_columns

SPLIT_TOL = 1e-12  # off-diagonal sign classification threshold
IMAG_TOL = 1e-9  # transformed matrices must be real to this tolerance


class NsiError(ValueError):
    pass


@dataclass
class StoquasticSplit:
    h_minus: np.ndarray  # diagonal plus negative off-diagonal entries
    h_plus: np.ndarray  # positive off-diagonal entries, zero diagonal
    alpha: float  # max_i H_ii


@dataclass
class NsiReport:
    beta: float
    s_thermal: float
    theorem1_bound: float
    avg_sign: float
    delta_f: float
    l1_h_plus: float
    l1_alpha_minus_h_minus: float
    s_initial: float | None = None
    theorem2_indicator: float | None = None
    phi0: int | None = None

    def to_dict(self) -> dict:
        """The fields, without the initial-state ones when phi0 is unset."""
        out = asdict(self)
        if self.phi0 is None:
            for key in ("phi0", "s_initial", "theorem2_indicator"):
                del out[key]
        return out


def _check_real_symmetric(h) -> np.ndarray:
    h = np.asarray(h)
    if np.iscomplexobj(h):
        raise NsiError("complex Hamiltonians are out of scope for NSI computation")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NsiError("need a square matrix")
    scale = np.abs(h).max()
    if not np.isfinite(scale):  # a NaN would fail every comparison below
        raise NsiError("matrix has non-finite entries")
    asym = h - h.T
    if np.abs(asym, out=asym).max() > 1e-10 * max(scale, 1.0):
        raise NsiError("matrix is not symmetric")
    return h


def split(h) -> StoquasticSplit:
    """Separate H = H_plus + H_minus by off-diagonal sign.

    Off-diagonal entries above SPLIT_TOL go to H_plus; everything else,
    including sub-tolerance positive noise, stays in H_minus so that the two
    parts reconstruct H exactly."""
    h = _check_real_symmetric(h)
    plus = np.where(h > SPLIT_TOL, h, 0.0)
    np.fill_diagonal(plus, 0.0)
    return StoquasticSplit(h_minus=h - plus, h_plus=plus, alpha=float(np.diag(h).max()))


def bosonic_form(s: StoquasticSplit) -> np.ndarray:
    return s.h_minus - s.h_plus


def _l1(m: np.ndarray) -> float:
    return float(np.abs(m).sum())


def _l1_alpha_minus(s: StoquasticSplit) -> float:
    """||alpha I - H_minus||_1, summed over the same entries as the matrix
    itself would be, without building the identity or the difference."""
    m = np.abs(s.h_minus)
    np.fill_diagonal(m, np.abs(s.alpha - np.diag(s.h_minus)))
    return float(m.sum())


def check_beta(beta: float) -> float:
    """beta, if it is a positive finite inverse temperature; else an NsiError."""
    if not 0 < beta < np.inf:  # NaN too
        raise NsiError("beta must be positive and finite")
    return beta


def _spectra(h, beta: float, phi0: int | None = None):
    """Set-up shared by the indicators: the beta check, the split (which
    checks that H is real symmetric) reduced to its L1 norms
    (||H_plus||_1, ||alpha I - H_minus||_1), and, of one diagonalization
    each of H and H~, the eigenvalues and the squared eigenvector rows phi0.
    The split is released before either eigensolve and each eigenvector
    matrix before the next, so that only H and H~ are held while H~ is
    diagonalized."""
    check_beta(beta)
    sp = split(h)
    if phi0 is not None and not 0 <= phi0 < len(sp.h_plus):
        raise NsiError("phi0 out of range")
    norms = (_l1(sp.h_plus), _l1_alpha_minus(sp))
    h_tilde = bosonic_form(sp)
    del sp
    evals, rows = zip(_eigen(h, phi0), _eigen(h_tilde, phi0))
    return norms, evals, rows


def _eigen(m: np.ndarray, phi0: int | None):
    """(eigenvalues, squared eigenvector row phi0 or None) of m: the row
    holds the weights |<k|phi0>|^2 of <phi0|exp(-beta m)|phi0> over the
    eigenvectors k.  It is a new array, so the eigenvector matrix is freed
    on return."""
    spec = exactdiag.diagonalize(m)
    return spec.eigenvalues, None if phi0 is None else spec.eigenvectors[phi0] ** 2


def _rounding_bound(evals, beta: float) -> float:
    """The rounding error of a shifted trace or quadratic form of H or H~,
    relative to its largest term: eigenvalue errors of order dim eps ||H||
    scaled by beta, plus dim eps for the sum.  The factor 4 leaves a margin
    of about 4 over the worst error seen on some 3000 random sparse
    gauge-stoquastic matrices (dim 4 to 64), whose indicators are exactly 0."""
    scale = max(np.abs(e).max() for e in evals)
    return 4.0 * len(evals[0]) * np.finfo(float).eps * (1.0 + beta * scale)


def _thermal(evals, beta: float) -> float:
    """s_thermal from the eigenvalues (of H, of H~)."""
    shift = float(evals[1][0])  # common shift; the ratio is shift-invariant
    z_h, z_t = (float(np.exp(-beta * (e - shift)).sum()) for e in evals)
    if not (np.isfinite(z_h) and np.isfinite(z_t)) or z_h == 0.0:
        raise NsiError("thermal trace overflow despite spectral shift")
    s = (z_t - z_h) / z_h
    return s if s > _rounding_bound(evals, beta) else 0.0


def _initial(evals, rows, beta: float) -> float | None:
    """The initial-state indicator from the eigenvalues and the squared
    eigenvector rows phi0 (of H, of H~), or None when not one digit of it is
    resolved: the rounding bound, relative to q_h, reaches 1."""
    shift = float(evals[1][0])
    q_h, q_t = (float(np.exp(-beta * (e - shift)) @ w) for e, w in zip(evals, rows))
    if not (np.isfinite(q_h) and np.isfinite(q_t)) or q_h == 0.0:
        raise NsiError("matrix-exponential overflow despite spectral shift")
    s = (q_t - q_h) / q_h
    # the bound is on errors relative to the largest term, 1 under the shift
    bound = _rounding_bound(evals, beta) / q_h
    if bound >= 1.0:
        return None
    return s if s > bound else 0.0


def theorem1_bound(s: StoquasticSplit, beta: float) -> float:
    """2 exp(beta ||alpha I - H_minus||_1) sinh(beta ||H_plus||_1).

    The L1 norm is the entrywise sum of magnitudes.  Returns +inf on overflow."""
    if beta < 0:
        raise NsiError("beta must be non-negative")
    return _theorem1(_l1(s.h_plus), _l1_alpha_minus(s), beta)


def _theorem1(l1_plus: float, l1_am: float, beta: float) -> float:
    with np.errstate(over="ignore"):
        val = 2.0 * np.exp(beta * l1_am) * np.sinh(beta * l1_plus)
    return float(val)


def theorem2_indicator(h, phi0: int) -> float:
    """|| (I - |phi0><phi0|) H |phi0> ||^2 = sum_{j != phi0} H_{j,phi0}^2."""
    h = _check_real_symmetric(h)
    if not (0 <= phi0 < h.shape[0]):
        raise NsiError("phi0 out of range")
    return _theorem2(h, phi0)


def _theorem2(h: np.ndarray, phi0: int) -> float:
    col = h[:, phi0].copy()
    col[phi0] = 0.0
    return float(col @ col)


def nsi_report(h, beta: float, phi0: int | None = None) -> NsiReport:
    """Full indicator bundle for one (H, beta) pair and optional reference;
    H and H~ are diagonalized once each."""
    h = np.asarray(h)
    (l1_plus, l1_am), evals, rows = _spectra(h, beta, phi0)
    s_th = _thermal(evals, beta)
    rep = NsiReport(
        beta=beta,
        s_thermal=s_th,
        theorem1_bound=_theorem1(l1_plus, l1_am, beta),
        avg_sign=1.0 / (1.0 + s_th),
        delta_f=np.log1p(s_th) / beta,
        l1_h_plus=l1_plus,
        l1_alpha_minus_h_minus=l1_am,
    )
    if phi0 is not None:
        rep.phi0 = int(phi0)
        rep.s_initial = _initial(evals, rows, beta)
        rep.theorem2_indicator = _theorem2(h, phi0)  # h is checked by _spectra
    return rep


def transformed_dense(h: PauliSum, u: Circuit, params=(), basis=None) -> np.ndarray:
    """The d x d block of U^dag H U over `basis`, a sorted array of d indices
    (all 2^n when None), all columns in one batched pass through the circuit
    compiled over the basis.  The result must be real to IMAG_TOL (the
    real-Hamiltonian scope of this package); smaller imaginary parts are
    truncated."""
    dim = 1 << u.n_qubits if basis is None else len(basis)
    if dim > DENSE_DIM_LIMIT:
        raise NsiError(f"dimension {dim} exceeds dense limit {DENSE_DIM_LIMIT}")
    compiled = compile_circuit(u, params, basis)
    hp = transformed_columns(h, compiled, compiled.basis)
    if not np.iscomplexobj(hp):  # a real circuit: nothing to check or truncate
        return hp
    worst = float(np.abs(hp.imag).max())
    if worst > IMAG_TOL:
        raise NsiError(f"transformed Hamiltonian has imaginary residue {worst:.3e} above "
                       f"{IMAG_TOL:.0e}; complex-valued bases are out of scope")
    return hp.real.copy()


def transformed_nsi(
    h: PauliSum, u: Circuit, params, beta: float, phi0: int | None = None
) -> NsiReport:
    """NsiReport for H expressed in the circuit-rotated walker basis {U|i>}."""
    hp = transformed_dense(h, u, params)
    return nsi_report(hp, beta, phi0=phi0)

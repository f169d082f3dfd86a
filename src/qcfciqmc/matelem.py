"""Matrix elements of the similarity-transformed Hamiltonian H' = U^dag H U.

This is the quantum subroutine of the hybrid method: the walker engine asks
for rows and entries of H' in the circuit-rotated basis and never sees the
statevector.  Two backends share one interface.  The exact backend evaluates
entries from dense circuit applications.  The sampled backend emulates the
one-ancilla estimation circuits at the level of their measurement statistics:
magnitudes from a multinomial draw over the normalized distribution
q(j) = |H'_ji|^2 / nu^2 with nu^2 = <i|U^dag H^2 U|i>, and signs from the
Hadamard-test Bernoulli with success probability (1 + Re H'_ji / nu) / 2.

Sampling is keyed per basis index from the source seed, so every backend call
is a pure function of (source, indices): repeated queries reproduce the same
draw and results never depend on call order.

Each row is measured once: one transformed column and one magnitude draw go
into a per-row record on the source, which then serves magnitudes, signs,
the diagonal and the signed row.  Signed elements are cached under the
symmetric key (min(i,j), max(i,j)) because the engine-facing Hamiltonians are
real symmetric; the first stored value wins.

The walker engine reads the source through two batched views that the source
owns: a CSR of resolved rows (targets, |H'_ji| and child signs, with a start
and a length per row; a row is appended when its signs are first resolved)
and a vector of diagonal elements, each filled once through `get_element`.
Both resolve unseen entries in the order the caller gives, so the element
cache fills in the same order as one row at a time would.  Nothing is
persisted between runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .operators import PauliSum
from .simulator import Circuit, transformed_columns


class MatelemError(ValueError):
    pass


class SignAmbiguityError(MatelemError):
    """Re H'_ji statistically indistinguishable from zero; treat the element as zero."""


@dataclass(frozen=True)
class ExactBackend:
    magnitude_floor: float = 1e-8


@dataclass(frozen=True)
class SampledBackend:
    shots_magnitude: int = 10**6
    shots_sign: int = 10**4
    magnitude_floor: float = 0.0  # extra user floor on top of the 3-SE cut
    ambiguity_z: float = 3.0


@dataclass
class MatrixElementCache:
    entries: dict = field(default_factory=dict)  # (min, max) -> signed real
    hits: int = 0
    misses: int = 0

    def lookup(self, i: int, j: int):
        key = (i, j) if i <= j else (j, i)
        val = self.entries.get(key)
        if val is None:
            self.misses += 1
        else:
            self.hits += 1
        return val

    def store(self, i: int, j: int, value: float) -> float:
        """Insert-if-absent; the first stored value wins."""
        key = (i, j) if i <= j else (j, i)
        return self.entries.setdefault(key, float(value))


@dataclass
class ConnectionList:
    source: int
    connections: list  # [(j, |H'_ji| estimate)], j != source, above floor


@dataclass
class RowRecord:
    """What one measurement of row i yields, plus what is derived from it."""

    column: np.ndarray  # Re H'_ji over all j
    nu_sq: float  # <i|U^dag H^2 U|i>, the row's squared norm
    magnitudes: ConnectionList  # the row's one magnitude draw
    signed: list | None = None  # [(j, H'_ji)] with signs resolved, once asked for


class ElementSource:
    """Matrix elements of U^dag H U with a fixed circuit and parameter set."""

    def __init__(self, hamiltonian: PauliSum, circuit: Circuit, params=(),
                 backend=None, seed: int = 0):
        if not hamiltonian.is_hermitian():
            raise MatelemError("Hamiltonian must be Hermitian")
        self.hamiltonian = hamiltonian
        self.circuit = circuit
        self.params = tuple(float(p) for p in params)  # immutable for the run
        self.backend = backend if backend is not None else ExactBackend()
        self.cache = MatrixElementCache()
        self.seed = int(seed)
        self.n_qubits = circuit.n_qubits
        self._lock = threading.Lock()
        self._rows: dict = {}  # i -> RowRecord
        dim = 1 << self.n_qubits
        # engine CSR: resolved row i occupies [_row_start[i], _row_start[i] +
        # _row_len[i]) of the entry arrays; -1 marks a row not resolved yet
        self._row_start = np.full(dim, -1, dtype=np.int64)
        self._row_len = np.full(dim, -1, dtype=np.int64)
        self._targets = np.zeros(0, dtype=np.int64)
        self._mags = np.zeros(0)  # |H'_ji|
        self._child_signs = np.zeros(0, dtype=np.int64)  # -sign(H'_ji)
        self._diag = np.full(dim, np.nan)  # H'_ii once read; NaN until then

    def transformed_column(self, i: int) -> np.ndarray:
        """Column i of H': entry j equals <j|U^dag H U|i>."""
        if not (0 <= i < 1 << self.n_qubits):
            raise MatelemError(f"basis index {i} out of range")
        return transformed_columns(self.hamiltonian, self.circuit, self.params, [i])[:, 0]

    def row(self, i: int) -> RowRecord:
        """The record of row i, measured on first request."""
        rec = self._rows.get(i)
        if rec is None:
            rec = self._measure(i)
            with self._lock:
                rec = self._rows.setdefault(i, rec)
        return rec

    def _append_row(self, i: int, signed: list) -> None:
        """Append resolved row i to the engine CSR; the caller holds the lock."""
        vals = np.array([v for (_, v) in signed], dtype=float)
        start = len(self._targets)
        self._targets = np.concatenate(
            [self._targets, np.array([j for (j, _) in signed], dtype=np.int64)])
        self._mags = np.concatenate([self._mags, np.abs(vals)])
        self._child_signs = np.concatenate(
            [self._child_signs, np.where(vals > 0, -1, 1).astype(np.int64)])
        self._row_start[i], self._row_len[i] = start, len(signed)

    def _measure(self, i: int) -> RowRecord:
        col = self.transformed_column(i)
        nu_sq = float(np.vdot(col, col).real)  # exactly <i|U^dag H^2 U|i>
        if isinstance(self.backend, ExactBackend):
            mags = np.abs(col)
            keep = mags >= self.backend.magnitude_floor
        else:
            mags, keep = self._draw_magnitudes(i, col, nu_sq)
        keep[i] = False
        found = np.nonzero(keep)[0]
        connections = list(zip(found.tolist(), mags[found].tolist()))
        return RowRecord(col.real.copy(), nu_sq, ConnectionList(i, connections))

    def _draw_magnitudes(self, i: int, col: np.ndarray, nu_sq: float):
        """|H'_ji| estimates from one multinomial draw, and which ones to keep."""
        if nu_sq <= 0.0:
            return np.zeros(len(col)), np.zeros(len(col), dtype=bool)
        q = np.abs(col) ** 2 / nu_sq
        q = q / q.sum()
        shots = self.backend.shots_magnitude
        counts = self._rng(i).multinomial(shots, q)
        estimates = nu_sq * counts / shots
        # binomial standard error of each |H'_ji|^2 estimate
        se = nu_sq * np.sqrt(counts / shots * (1.0 - counts / shots) / shots)
        keep = estimates >= np.maximum(self.backend.magnitude_floor**2, 3.0 * se)
        return np.sqrt(estimates), keep & (counts > 0)

    def _rng(self, *key) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(int(k) for k in key))
        return np.random.Generator(np.random.Philox(ss))


def row_magnitudes(src: ElementSource, i: int) -> ConnectionList:
    """The magnitude draw of row i."""
    return src.row(i).magnitudes


def element_sign(src: ElementSource, i: int, j: int) -> int:
    """sign(Re H'_ji), read from column i; exact, or a Hadamard-test estimate."""
    rec = src.row(i)
    re = float(rec.column[j])
    if isinstance(src.backend, ExactBackend):
        if re == 0.0:
            raise SignAmbiguityError(f"Re H'[{j},{i}] is exactly zero")
        return 1 if re > 0.0 else -1
    nu = float(np.sqrt(rec.nu_sq))
    if nu == 0.0:
        raise SignAmbiguityError("zero row norm; no sign to estimate")
    p = min(1.0, max(0.0, 0.5 * (1.0 + re / nu)))
    shots = src.backend.shots_sign
    successes = int(src._rng(min(i, j), max(i, j), 1).binomial(shots, p))
    margin = abs(2 * successes - shots)
    if margin <= src.backend.ambiguity_z * np.sqrt(shots):
        raise SignAmbiguityError(
            f"sign margin {margin} within {src.backend.ambiguity_z} sigma of a coin flip"
        )
    return 1 if 2 * successes > shots else -1


def diagonal_element(src: ElementSource, i: int) -> float:
    """<phi_i|H|phi_i>; exact expectation, or shot-averaged on the sampled backend."""
    rec = src.row(i)
    exact = float(rec.column[i])
    if isinstance(src.backend, ExactBackend):
        return exact
    # Hadamard-test emulation of the same estimation circuit at j = i:
    # nu * (2 p_hat - 1) with p = (1 + H'_ii/nu)/2
    nu = float(np.sqrt(rec.nu_sq))
    if nu == 0.0:
        return 0.0
    p = min(1.0, max(0.0, 0.5 * (1.0 + exact / nu)))
    shots = src.backend.shots_sign
    successes = int(src._rng(i, 3).binomial(shots, p))
    return nu * (2.0 * successes / shots - 1.0)


def get_element(src: ElementSource, i: int, j: int) -> float:
    """Signed real H'_ji, measured once then served from the symmetric cache."""
    cached = src.cache.lookup(i, j)
    if cached is not None:
        return cached
    if i == j:
        return src.cache.store(i, i, diagonal_element(src, i))
    mag = 0.0
    for (k, m) in src.row(i).magnitudes.connections:
        if k == j:
            mag = m
            break
    if mag == 0.0:
        return src.cache.store(i, j, 0.0)
    try:
        sign = element_sign(src, i, j)
    except SignAmbiguityError:
        return src.cache.store(i, j, 0.0)
    return src.cache.store(i, j, sign * mag)


def _resolved(src: ElementSource, i: int) -> RowRecord:
    """Row i's record with its signed row filled in and appended to the CSR."""
    rec = src.row(i)
    if rec.signed is None:
        signed = []
        # the one read of the row's draw as a whole; get_element looks up
        # single entries in the record, so each row reports one draw
        for (j, _) in row_magnitudes(src, i).connections:
            val = get_element(src, i, j)
            if val != 0.0:
                signed.append((j, val))
        with src._lock:
            if rec.signed is None:
                rec.signed = signed
                src._append_row(i, signed)
    return rec


def signed_row(src: ElementSource, i: int) -> list:
    """All (j, H'_ji) connections from i with signs resolved, cache-backed."""
    return _resolved(src, i).signed


def row_arrays(src: ElementSource, indices) -> tuple:
    """Signed rows of `indices`, concatenated in the order given, as arrays
    (targets j, |H'_ji|, -sign(H'_ji), row lengths).

    Rows not resolved yet are resolved first, in the order given.  The third
    array is the child-sign factor of the spawning step: the projector's
    off-diagonal weight is -H'_ji."""
    indices = np.asarray(indices, dtype=np.int64)
    lens = src._row_len[indices]
    if (lens < 0).any():
        for i in indices[lens < 0].tolist():
            _resolved(src, i)
        lens = src._row_len[indices]
    ends = lens.cumsum()
    # position k of the output reads entry start + (k - offset) of its row
    pos = (src._row_start[indices] - ends + lens).repeat(lens)
    pos += np.arange(len(pos))
    return src._targets[pos], src._mags[pos], src._child_signs[pos], lens


def diagonal_elements(src: ElementSource, indices) -> np.ndarray:
    """H'_ii over `indices`; each entry is read once through get_element, in
    the order given, and then served from the source's diagonal vector."""
    indices = np.asarray(indices, dtype=np.int64)
    d = src._diag[indices]
    unseen = np.isnan(d)
    if unseen.any():
        for i in indices[unseen].tolist():
            src._diag[i] = get_element(src, i, i)
        d = src._diag[indices]
    return d

"""Matrix elements of the similarity-transformed Hamiltonian H' = U^dag H U.

This is the quantum subroutine of the hybrid method: the walker engine asks
for rows and entries of H' in the circuit-rotated basis and never sees the
statevector.  Two backends share one interface.  The exact backend evaluates
entries from dense circuit applications.  The sampled backend emulates the
one-ancilla estimation circuits at the level of their measurement statistics:
magnitudes from a multinomial draw over the normalized distribution
q(j) = |H'_ji|^2 / nu^2 with nu^2 = <i|U^dag H^2 U|i> (zero where
|H'_ji| < 1e-13 nu, which is roundoff residue), and signs from the
Hadamard-test Bernoulli with success probability (1 + Re H'_ji / nu) / 2.

Every draw comes from a counter-based Philox stream (Salmon et al., SC'11)
keyed by the source seed, a domain and up to two indices (`KeyedStreams`):
the magnitude draw of row i by (MAGNITUDE, i), the signs of row i by
(SIGN, i) and the diagonal of row i by (DIAGONAL, i).  The engine draws its
steps from the ENGINE stream of its own seed.  So every draw, and every
element served, signed ones included, is a pure function of (source, key):
it does not depend on which rows were read before, or in what order.

The source owns one Philox generator and re-keys it for each draw; the
engine owns another (see `fciqmc`).

The source compiles its circuit once, at its fixed parameters, into gate
runs over its basis (`simulator.compile_circuit`): the full 2^n space by
default, or the walker sector, where a column has d entries instead of 2^n.
Row i is one measurement event, `ElementSource._measure`: from one
transformed column it takes the magnitude draw, the sign draw (a Hadamard
test for every j != i with q(j) > 0, in one binomial call) and the diagonal,
exact or drawn.  The first measurement writes them into the only row store,
indexed like the engine's walkers by basis position: one array pair per
measured row (target positions and H'_ji as measured, an unresolved sign
left out, never changed) and the diagonal vector.  The source serves
H'_ji itself; what the projector makes of it is `fciqmc`'s rule alone.
Stream keys stay walker indices, and the row norm and the magnitude
distribution are summed exactly rounded (`math.fsum`), so a sector source
draws what the full-space source does.  The engine reads by position
(`stored_row`, `row_arrays`, `row_lengths`, and `ElementSource.diagonal` once
a row is measured) and rebuilds its spawn table when
`ElementSource.n_measured` moves; the other readers take walker indices
and refuse one outside the basis.  `row_magnitudes` returns
the draw itself, signs at every kept target included, drawn again from its
keyed streams once the row is stored.  H'_ji is served from row i's
measurement alone, so H'_ij and H'_ji are two estimates, each from its own
row.  Nothing is kept between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .operators import PauliSum
from .simulator import Circuit, compile_circuit, transformed_columns


# |H'_ji| below this fraction of the row norm nu is roundoff residue to the
# magnitude draw: its probability is under 1e-26, so at 1e6 shots its
# expected count per row is below 1e-16
RESIDUE_FLOOR = 1e-13


class MatelemError(ValueError):
    pass


class SignAmbiguityError(MatelemError):
    """Re H'_ji statistically indistinguishable from zero; treat the element as zero."""


# The stream domains.  The first Philox key word of a stream is
# domain << 62 | a << 31 | b, with the fields a and b in [0, 2**31).
MAGNITUDE, SIGN, DIAGONAL, ENGINE = range(4)
_FIELD_LIMIT = 1 << 31


class KeyedStreams:
    """One Philox generator, re-keyed in place to the stream of (domain, a, b).

    That stream is Generator(Philox(key=[domain << 62 | a << 31 | b, w])),
    where w = SeedSequence(seed).generate_state(1, np.uint64)[0] is computed
    once per owner.  Distinct (domain, a, b) give distinct keys, so no two
    streams of one seed coincide.  Re-keying sets counter 0 and an empty
    buffer, the state a fresh generator starts from, so a stream does not
    depend on what the generator drew before."""

    def __init__(self, seed: int):
        if seed < 0:
            raise MatelemError(f"seeds must be non-negative, got {seed}")
        self._bitgen = np.random.Philox(0)  # its key is replaced on every re-key
        self._generator = np.random.Generator(self._bitgen)
        # a fresh generator's state: counter 0, no buffered output, no half-used word
        self._state = self._bitgen.state
        self._key = self._state["state"]["key"]
        self._key[1] = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]

    def stream(self, domain: int, a: int = 0, b: int = 0) -> np.random.Generator:
        """The generator, set to the start of the stream of (domain, a, b)."""
        if not (0 <= a < _FIELD_LIMIT and 0 <= b < _FIELD_LIMIT):
            raise MatelemError(f"stream key fields must lie in [0, 2**31), got ({a}, {b})")
        self._key[0] = domain << 62 | int(a) << 31 | int(b)
        self._bitgen.state = self._state
        return self._generator


def _check_cut(name: str, value: float) -> None:
    if not 0 <= value < math.inf:  # NaN too
        raise MatelemError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class ExactBackend:
    kind: ClassVar[str] = "exact"
    magnitude_floor: float = 1e-8

    def __post_init__(self):
        _check_cut("magnitude_floor", self.magnitude_floor)


@dataclass(frozen=True)
class SampledBackend:
    kind: ClassVar[str] = "sampled"
    shots_magnitude: int = 10**6
    shots_sign: int = 10**4
    magnitude_floor: float = 0.0  # extra user floor on top of the 3-SE cut
    ambiguity_z: float = 3.0

    def __post_init__(self):
        for name in ("shots_magnitude", "shots_sign"):
            if not 1 <= getattr(self, name) <= np.iinfo(np.int64).max:  # numpy draws take a C long
                raise MatelemError(f"{name} must lie in [1, 2**63 - 1]")
        _check_cut("magnitude_floor", self.magnitude_floor)
        _check_cut("ambiguity_z", self.ambiguity_z)


@dataclass(frozen=True)
class RowRecord:
    """The draw of row i: what one measurement of it yields, besides H'_ii."""

    targets: np.ndarray  # the draw's kept j != i, ascending walker indices
    mags: np.ndarray  # the draw's |H'_ji| estimates at `targets`
    signs: np.ndarray  # int8 sign(Re H'_ji) at `targets`; 0 where not resolved

    @property
    def connections(self) -> list:
        """The draw as [(j, |H'_ji|)] pairs, ascending in j."""
        return list(zip(self.targets.tolist(), self.mags.tolist()))


class ElementSource:
    """Matrix elements of U^dag H U with a fixed circuit and parameter set."""

    def __init__(self, hamiltonian: PauliSum, circuit: Circuit, params=(),
                 backend=None, seed: int = 0, basis=None):
        if not hamiltonian.hermitian:
            raise MatelemError("Hamiltonian must be Hermitian")
        self.hamiltonian = hamiltonian
        self.backend = backend if backend is not None else ExactBackend()
        self.seed = int(seed)
        # the magnitude, sign and diagonal draws; the engine owns another generator
        self._streams = KeyedStreams(self.seed)
        # fixed for the run; columns run over its basis, all 2^n indices by default
        self._compiled = compile_circuit(circuit, params, basis)
        d = len(self.basis)
        # the measured rows by basis position: row p is the array pair
        # (target positions, H'_ji), None until it is measured; _row_len[p]
        # is its length, -1 before
        self._rows = [None] * d
        self._row_len = np.full(d, -1, dtype=np.int64)
        self.n_measured = 0  # rows measured so far, the count of _row_len >= 0
        self._diag = np.full(d, np.nan)  # H'_ii of each measured row

    @property
    def basis(self) -> np.ndarray:
        """The ascending walker indices the source was built over."""
        return self._compiled.basis

    @property
    def position(self) -> np.ndarray:
        """The position of each walker index in `basis`; len(basis) outside it."""
        return self._compiled.position

    def position_of(self, i: int) -> int:
        """The position of walker index i in `basis`; an index outside it is an error."""
        p = int(self.position[i]) if 0 <= i < len(self.position) else len(self.basis)
        if p == len(self.basis):
            raise MatelemError(f"basis index {i} is out of range or outside the source's basis")
        return p

    @property
    def diagonal(self) -> np.ndarray:
        """H'_ii by position, NaN where the row is not measured yet."""
        return self._diag

    def measured_positions(self) -> np.ndarray:
        """The positions of the rows measured so far, ascending."""
        return (self._row_len >= 0).nonzero()[0]

    def transformed_column(self, i: int) -> np.ndarray:
        """Column i of H' over the source's basis: entry p equals
        <basis[p]|U^dag H U|i>, where basis holds the ascending indices the
        source was built over."""
        self.position_of(i)
        return transformed_columns(self.hamiltonian, self._compiled, [i])[:, 0]

    def _measure(self, i: int) -> RowRecord:
        """Row i's magnitudes, signs and diagonal, exact or drawn, each keyed
        by the index i, never by a position.  The first measurement stores
        the signed row (entries that come out zero, an unresolved sign, are
        left out) and H'_ii; every one returns the record."""
        col = self.transformed_column(i)
        own = int(self.position[i])
        # <i|U^dag H^2 U|i>, exactly rounded: the sum does not depend on how
        # many zero entries the column carries or how the terms are grouped
        nu_sq = math.fsum(np.abs(col) ** 2)
        if isinstance(self.backend, ExactBackend):
            mags = np.abs(col)
            keep = mags >= self.backend.magnitude_floor
            signs = np.sign(col.real).astype(np.int8)
            signed = col.real
            diag = float(col.real[own])
        else:
            mags, keep = self._draw_magnitudes(i, col, nu_sq)
            signs = self._draw_signs(i, own, col, nu_sq)
            signed = signs * mags
            diag = self._draw_diagonal(i, float(col.real[own]), nu_sq)
        keep[own] = False
        kept = np.nonzero(keep)[0]
        if self._row_len[own] < 0:
            kept_nonzero = kept[signed[kept] != 0.0]
            self._rows[own] = kept_nonzero, signed[kept_nonzero]
            self._row_len[own] = len(kept_nonzero)
            self._diag[own] = diag
            self.n_measured += 1
        return RowRecord(self.basis[kept], mags[kept], signs[kept])

    def _draw_magnitudes(self, i: int, col: np.ndarray, nu_sq: float):
        """|H'_ji| estimates from one multinomial draw, and which ones to keep."""
        if nu_sq <= 0.0:
            return np.zeros(len(col)), np.zeros(len(col), dtype=bool)
        # roundoff residue gets probability exactly zero, so the multinomial
        # consumes the same stream whichever residues the arithmetic left
        q = _residue_free(col, nu_sq) ** 2 / nu_sq
        q = q / math.fsum(q)
        shots = self.backend.shots_magnitude
        counts = self._streams.stream(MAGNITUDE, i).multinomial(shots, q)
        estimates = nu_sq * counts / shots
        # binomial standard error of each |H'_ji|^2 estimate
        se = nu_sq * np.sqrt(counts / shots * (1.0 - counts / shots) / shots)
        keep = estimates >= np.maximum(self.backend.magnitude_floor**2, 3.0 * se)
        return np.sqrt(estimates), keep & (counts > 0)

    def _draw_signs(self, i: int, own: int, col: np.ndarray, nu_sq: float) -> np.ndarray:
        """sign(Re H'_ji) from the Hadamard test, p = (1 + Re H'_ji / nu) / 2,
        at every j != i that the magnitude draw can reach (q(j) > 0), all
        drawn in one binomial call from the (SIGN, i) stream; i sits at
        position own of col.  0 elsewhere, and where the margin of successes
        lies within ambiguity_z sigma of a coin flip."""
        tested = _residue_free(col, nu_sq) > 0.0
        tested[own] = False
        shots = self.backend.shots_sign
        p = np.clip(0.5 * (1.0 + col.real[tested] / np.sqrt(nu_sq)), 0.0, 1.0)
        margin = 2 * self._streams.stream(SIGN, i).binomial(shots, p) - shots
        resolved = np.abs(margin) > self.backend.ambiguity_z * np.sqrt(shots)
        signs = np.zeros(len(col), dtype=np.int8)
        signs[tested] = np.sign(margin) * resolved
        return signs

    def _draw_diagonal(self, i: int, h_ii: float, nu_sq: float) -> float:
        """H'_ii from the same estimation circuit at j = i: nu (2 p_hat - 1),
        with p = (1 + Re H'_ii / nu) / 2, drawn from the (DIAGONAL, i) stream."""
        nu = float(np.sqrt(nu_sq))
        if nu == 0.0:
            return 0.0
        p = min(1.0, max(0.0, 0.5 * (1.0 + h_ii / nu)))
        shots = self.backend.shots_sign
        successes = int(self._streams.stream(DIAGONAL, i).binomial(shots, p))
        return nu * (2.0 * successes / shots - 1.0)


def _residue_free(col: np.ndarray, nu_sq: float) -> np.ndarray:
    """|H'_ji| over all j, zero where it is roundoff residue (< RESIDUE_FLOOR nu)."""
    mags = np.abs(col)
    mags[mags < RESIDUE_FLOOR * np.sqrt(nu_sq)] = 0.0
    return mags


def row_magnitudes(src: ElementSource, i: int) -> RowRecord:
    """The record of row i, whose `targets` and `mags` are its magnitude draw.
    The first request measures the row into the store; a later one draws it
    again from its keyed streams, which give the same bytes."""
    return src._measure(i)


def element_sign(src: ElementSource, i: int, j: int) -> int:
    """sign(Re H'_ji), read from row i's stored row: exact, or its Hadamard
    test.  The row holds j exactly where row i's draw kept j and resolved
    its sign; any other j has no sign."""
    targets, values = resolved_row(src, i)
    k = int(targets.searchsorted(j))
    if k == len(targets) or targets[k] != j:
        raise SignAmbiguityError(f"no sign resolved for Re H'[{j},{i}]")
    return int(np.sign(values[k]))


def row_lengths(src: ElementSource, positions: np.ndarray) -> np.ndarray:
    """The stored row lengths at `positions`, once each of those rows not
    measured yet is measured, in the order given."""
    lens = src._row_len[positions]
    fresh = (lens < 0).nonzero()[0]
    if len(fresh):
        for i in dict.fromkeys(src.basis[positions[fresh]].tolist()):
            row_magnitudes(src, i)
        lens = src._row_len[positions]
    return lens


def diagonal_element(src: ElementSource, i: int) -> float:
    """<phi_i|H|phi_i>; exact expectation, or shot-averaged on the sampled backend."""
    p = src.position_of(i)
    stored_row(src, p)  # measures the row first if it is not yet
    return float(src.diagonal[p])


def get_element(src: ElementSource, i: int, j: int) -> float:
    """Signed real H'_ji: the diagonal from `diagonal_element`, the rest read
    from row i's stored row (0.0 where row i's draw has no entry j or left its
    sign unresolved)."""
    if i == j:
        return diagonal_element(src, i)
    targets, values = resolved_row(src, i)
    k = int(targets.searchsorted(j))
    if k == len(targets) or targets[k] != j:
        return 0.0
    return float(values[k])


def stored_row(src: ElementSource, p: int) -> tuple:
    """The row at position p, measured first if it has not been, as its
    stored arrays (target positions, H'_ji)."""
    if src._row_len[p] < 0:
        row_magnitudes(src, int(src.basis[p]))
    return src._rows[p]


def resolved_row(src: ElementSource, i: int) -> tuple:
    """Row i as stored, (targets j, H'_ji), the targets walker indices."""
    targets, values = stored_row(src, src.position_of(i))
    return src.basis[targets], values


def signed_row(src: ElementSource, i: int) -> list:
    """All (j, H'_ji) connections from i with signs resolved, as stored."""
    targets, values = resolved_row(src, i)
    return list(zip(targets.tolist(), values.tolist()))


def row_arrays(src: ElementSource, positions, out=None) -> tuple:
    """The rows at `positions`, concatenated in the order given, as arrays
    (target positions, H'_ji).  Rows not measured yet are measured first,
    in the order given.  `out`, two arrays (int64, float64) at least as long
    as those entries, takes them in its heads, which are returned: the
    gather then allocates nothing of that length."""
    positions = np.asarray(positions, dtype=np.int64)
    n = int(row_lengths(src, positions).sum())
    if out is None:
        out = np.empty(n, dtype=np.int64), np.empty(n)
    targets, values = (a[:n] for a in out)
    if len(positions):
        row_targets, row_values = zip(*(src._rows[p] for p in positions.tolist()))
        np.concatenate(row_targets, out=targets)
        np.concatenate(row_values, out=values)
    return targets, values

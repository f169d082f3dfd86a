"""Signed-walker projector Monte Carlo in the circuit-rotated basis.

The engine stochastically realizes imaginary-time evolution under
exp(-(H' - S) tau) with H' = U^dag H U served by an ElementSource.  One step:
spawning along off-diagonal connections, death/cloning on the diagonal, then
annihilation of opposite signs.  With the identity circuit this is classical
FCIQMC on the raw determinant basis.

Sign convention that must not be broken: the projector's off-diagonal weight
is -H'_ji, so a child on j inherits sign(i) * (-sign(H'_ji)).  The source's
stored rows hold H'_ji as measured; only `SpawnTable`, which takes
sign(-H'_ji), and the step, which multiplies it by sign(i), apply this
rule.  The diagonal step uses (H'_ii - S) directly.  Getting either sign
wrong still "runs" but projects onto the wrong vector.

Walkers are integers; fractional probabilities round stochastically.  The
population is one int64 vector of signed counts, one entry per basis
position of the element source (`ElementSource.basis`, ascending walker
indices): the walker sector for every command-line run, all 2^n indices for
a source built without one.  The engine works in positions end to end: each
update rule is a handful of vector operations over the population and over
the source's stored rows (one array pair of target positions and H'_ji per
measured row) and diagonal, which are indexed by position too.  All
randomness of a run comes from one counter-based Philox stream, the ENGINE
stream of the run's seed (`matelem.KeyedStreams`), keyed once per run.
The steps read H' through a spawn table (`SpawnTable`): per run, the
spawn entries of every row the source has measured, in ascending position
order, then one death/clone entry per row, built again only when the
source has measured a new row, after the old table is dropped, so one
table is alive at a time.  The table keeps per row, not per entry,
which row its entries belong to.  A step (`advance`) is one binomial call
over every entry of the table, with n = |count| walkers of the entry's
row (each row's count repeated over its entries), 0 on an unoccupied row,
and one scatter of the signed draws onto the counts.  numpy's binomial
returns 0 for n = 0 or p = 0 without drawing from its stream, and draws
the entries in order, so the stream is consumed as by one call over the
concatenated rows of the occupied parents in ascending parent order
followed by one over the occupied positions: the spawn step, then the
death/clone step (`spawn_step`, `death_clone_step`, the two halves of the
same draw).  A trajectory is therefore a pure function of (config, seed)
no matter how the host schedules threads, and the basis the source was
built over enters it only through the elements the source serves.

The engine's generator is not the element source's, because `measure_rows`,
the only call of a run that measures rows, makes element draws that re-key
the source's generator, at the start of a step.  Those draws are keyed by
row, and every H'_ji is read from row i's own measurement, so the order in
which the walkers reach rows changes neither an element nor the engine's
stream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .matelem import ENGINE, ElementSource, KeyedStreams, row_arrays, row_lengths, stored_row


class FciqmcError(RuntimeError):
    pass


class ExtinctionError(FciqmcError):
    """The walker population reached zero; the run cannot continue."""


class WalkerPopulation:
    """Signed walker counts over the basis of an element source: `counts[p]`
    is the signed int64 count on walker index `basis[p]`, zero where no
    walker sits, so a population of d positions is one (d,) vector however
    many walkers it holds.  `indices` and `signed` read the occupied walker
    indices, ascending, and their counts.  Treated as immutable; the update
    rules return new populations over the same basis."""

    def __init__(self, basis: np.ndarray, counts: np.ndarray):
        self.basis, self.counts = basis, counts

    @classmethod
    def from_dict(cls, src: ElementSource, counts: dict | None = None) -> "WalkerPopulation":
        """{walker index: signed count} over the basis of `src`; an index
        outside that basis is an error."""
        vec = np.zeros(len(src.basis), dtype=np.int64)
        for i, c in (counts or {}).items():
            vec[src.position_of(i)] = c
        return cls(src.basis, vec)

    @classmethod
    def single(cls, src: ElementSource, index: int, count: int) -> "WalkerPopulation":
        return cls.from_dict(src, {index: count})

    @property
    def indices(self) -> np.ndarray:
        return self.basis[self.counts != 0]

    @property
    def signed(self) -> np.ndarray:
        return self.counts[self.counts != 0]

    @property
    def total_walkers(self) -> int:
        return int(np.abs(self.counts).sum())

    @property
    def n_occupied(self) -> int:
        return int(np.count_nonzero(self.counts))

    def values(self) -> list:
        """The signed counts of the occupied indices, in ascending index order."""
        return self.signed.tolist()


@dataclass
class ShiftController:
    shift: float
    damping: float = 0.05  # zeta
    update_interval: int = 5  # A, in steps
    threshold: int = 5000
    active: bool = False
    _anchor_step: int = 0
    _prev_total: int = 0

    def observe(self, step: int, total: int, delta_tau: float) -> float:
        """Activate on first crossing, then update the shift every A steps."""
        if not self.active:
            if total > self.threshold:
                self.active = True
                self._anchor_step = step
                self._prev_total = total
            return self.shift
        if (step - self._anchor_step) % self.update_interval == 0 and step > self._anchor_step:
            self.shift = update_shift(self, total, self._prev_total, delta_tau)
            self._prev_total = total
        return self.shift


@dataclass
class RunConfig:
    delta_tau: float = 1e-3
    total_time: float = 10.0
    initial_walkers: int = 100
    seed: int = 1
    damping: float = 0.05
    update_interval: int = 5
    threshold: int = 5000
    equilibration_fraction: float = 0.5

    def __post_init__(self):
        if not self.delta_tau > 0:  # NaN too
            raise FciqmcError("delta_tau must be positive")
        if not 0 <= self.total_time / self.delta_tau < math.inf:  # NaN too
            raise FciqmcError("total_time must be finite and non-negative, in finitely many steps")
        if self.initial_walkers < 1:
            raise FciqmcError("initial_walkers must be at least 1")
        if self.initial_walkers > np.iinfo(np.int64).max:
            raise FciqmcError("initial_walkers must fit in a signed 64-bit count")
        if not 0 <= self.damping < math.inf:  # NaN too
            raise FciqmcError("damping must be finite and non-negative")
        if self.update_interval < 1:
            raise FciqmcError("update_interval must be at least 1")
        if self.threshold < 0:  # would start shift control on the first step
            raise FciqmcError("threshold must be non-negative")
        if not (0 <= self.equilibration_fraction < 1):
            raise FciqmcError("equilibration_fraction must lie in [0, 1)")

    @property
    def n_steps(self) -> int:
        return int(round(self.total_time / self.delta_tau))


@dataclass
class TrajectoryRecord:
    step: int
    tau: float
    shift: float
    n_walkers: int
    n_occupied: int
    e_mixed: float | None


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    config: RunConfig | None = None
    reference: int = 0


# ---------------------------------------------------------------------------
# single update rules
# ---------------------------------------------------------------------------

class SpawnTable:
    """What a step reads of every row an element source has measured, at
    one delta_tau, the rows (`rows`) in ascending position order.  Its
    entries are the E = `n_spawn` spawn entries, each row's in stored order,
    then one diagonal entry per row, in three arrays of length E + R: the
    position its draw lands on (`dests`: the target, then the row), its
    probability `p` (frac(delta_tau |H'_ji|), then the death/clone
    probability |H'_ii - S| delta_tau clamped to 1) and an int8 `factor`
    (sign(-H'_ji), then -1 where walkers die, H'_ii > S, moving the count
    towards zero, and 1 where they clone).  Which row an entry belongs to
    is kept per row, in two arrays of length 2R: `parents`, the rows twice
    (once for their spawn entries, once for their diagonal entries), and
    `repeats`, the number of entries each holds (the row's length, then
    1), so the walkers of the entries are the parents' counts repeated.
    `base` holds the integer parts of delta_tau |H'_ji| over the spawn
    entries, None when every one is 0; `diag` holds H'_ii per row, and
    `unclamped` the death/clone probabilities before the clamp where one
    exceeds 1, else None.  The diagonal entries hold the shift `shift`
    (None until `set_shift`), and only a new shift rewrites them.  The
    tables take 17 bytes per spawn entry plus 65 per row, 25 per spawn entry
    with the integer part."""

    def __init__(self, src: ElementSource, delta_tau: float):
        self.delta_tau = delta_tau
        self.rows = src.measured_positions()
        lens = row_lengths(src, self.rows)
        e = self.n_spawn = int(lens.sum())
        size = e + len(self.rows)
        self.parents = np.concatenate([self.rows, self.rows])
        self.repeats = np.concatenate([lens, np.ones_like(lens)])
        # each array is allocated once, the stored rows concatenated into
        # its head: a table of the trained 2x4 basis covers about 21M entries
        self.dests = np.empty(size, dtype=np.int64)
        self.p = np.empty(size)
        self.factor = np.empty(size, dtype=np.int8)
        row_arrays(src, self.rows, out=(self.dests, self.p))
        self.dests[e:] = self.rows
        # the projector's off-diagonal weight is -H'_ji delta_tau: its sign is
        # -sign(H'_ji), and |H'_ji| * delta_tau rounds to the bits of its
        # magnitude
        head, signs = self.p[:e], self.factor[:e]
        np.sign(head, out=signs, casting="unsafe")
        np.negative(signs, out=signs)
        np.abs(head, out=head)
        head *= delta_tau
        self.base = None
        if head.max(initial=0.0) >= 1.0:
            self.base = np.empty(e, dtype=np.int64)
            np.floor(head, out=self.base, casting="unsafe")
            head -= self.base
        self.diag = src.diagonal[self.rows]
        self.shift, self.unclamped = None, None

    def set_shift(self, shift: float) -> None:
        """Write the death/clone probabilities and factors at shift S into
        the diagonal entries, unless they already hold that shift."""
        if shift == self.shift:
            return
        e = self.n_spawn
        d = (self.diag - shift) * self.delta_tau
        p = np.abs(d)
        np.minimum(p, 1.0, out=self.p[e:])
        self.factor[e:] = np.where(d > 0, -1, 1)
        self.unclamped = p if p.max(initial=0.0) > 1.0 else None
        self.shift = shift


def measure_rows(pop: WalkerPopulation, src: ElementSource) -> int:
    """Measure the occupied rows of `pop` that `src` has not measured yet,
    ascending (the engine's only call that measures rows); `src.n_measured`."""
    if src.n_measured < len(pop.counts):
        row_lengths(src, pop.counts.nonzero()[0])
    return src.n_measured


def spawn_table(pop: WalkerPopulation, src: ElementSource, delta_tau: float) -> SpawnTable:
    """A new spawn table of `src` at delta_tau, built once every occupied
    row of `pop` is measured (`measure_rows`)."""
    measure_rows(pop, src)
    return SpawnTable(src, delta_tau)


def _step(pop: WalkerPopulation, table: SpawnTable, rng: np.random.Generator,
          spawn: bool, death: bool) -> WalkerPopulation:
    """Draw the table's spawn entries, its diagonal entries or both, in one
    binomial call, and add the draws at their destinations.

    Per entry n = |count of its row| walkers each succeed with its p, plus
    n times the integer part on a spawn entry, and the signed draw is that
    count times the row's sign and the entry's factor.  n = 0 draws nothing
    from the generator, and numpy draws the entries in order, so a call
    over both parts consumes the stream as a call over the spawn entries
    followed by one over the diagonal entries.  The death/clone draws start
    from the population's counts, the spawn draws alone from zero."""
    e, r = table.n_spawn, len(table.rows)
    lo, hi = (0 if spawn else e), (len(table.p) if death else e)
    a, b = (0 if spawn else r), (2 * r if death else r)
    signed = pop.counts[table.parents[a:b]].repeat(table.repeats[a:b])
    n = np.abs(signed)
    if death and table.unclamped is not None:
        worst = table.unclamped[n[e - lo:] > 0].max(initial=0.0)
        if worst > 1.0:
            warnings.warn(
                f"death/clone probability {float(worst):.3f} clamped to 1; reduce delta_tau",
                stacklevel=3,
            )
    draws = rng.binomial(n, table.p[lo:hi])
    if spawn and table.base is not None:
        head = n[:e]
        head *= table.base
        draws[:e] += head
    draws *= np.sign(signed, out=signed)
    draws *= table.factor[lo:hi]
    counts = pop.counts.copy() if death else np.zeros_like(pop.counts)
    np.add.at(counts, table.dests[lo:hi], draws)
    return WalkerPopulation(pop.basis, counts)


def advance(pop: WalkerPopulation, table: SpawnTable, shift: float,
            rng: np.random.Generator) -> WalkerPopulation:
    """One step at shift S: spawning, death/cloning and annihilation in one
    binomial call over the table and one scatter.  Every occupied row must
    be in the table (`spawn_table`).  The result, and the generator state
    after it, are those of annihilate(death_clone_step(pop, table, shift,
    rng), spawn_step(pop, table, rng)) with spawn_step drawn first."""
    table.set_shift(shift)
    return _step(pop, table, rng, spawn=True, death=True)


def spawn_step(pop: WalkerPopulation, table: SpawnTable,
               rng: np.random.Generator) -> WalkerPopulation:
    """Children spawned off every occupied index; accumulated apart from parents.

    Per parent walker on i and connection j: count floor(p) + Bernoulli(frac)
    with p = |H'_ji| delta_tau, child sign = sign(i) * (-sign(H'_ji)), the
    table's sign(-H'_ji) times sign(i).  The per-connection Bernoulli sums
    collapse to one binomial draw per (i, j) of n_i = |count_i| walkers,
    over the table's spawn entries in ascending parent order; n = 0 draws
    nothing, so this consumes the stream exactly as one call per occupied
    parent would.  Returns the children as a population over the same
    basis, summed per target in int64."""
    return _step(pop, table, rng, spawn=True, death=False)


def death_clone_step(pop: WalkerPopulation, table: SpawnTable, shift: float,
                     rng: np.random.Generator) -> WalkerPopulation:
    """Diagonal step: die with probability (H'_ii - S) dt if positive, else clone.

    One binomial draw covers the table's diagonal entries, ascending; an
    unoccupied row draws nothing.  The probability is clamped to 1 on
    every row, with a warning when an occupied row needed it."""
    table.set_shift(shift)
    return _step(pop, table, rng, spawn=False, death=True)


def annihilate(parents: WalkerPopulation, spawned: WalkerPopulation) -> WalkerPopulation:
    """Signed per-position sum; exact cancellation empties the position."""
    return WalkerPopulation(parents.basis, parents.counts + spawned.counts)


def update_shift(ctl: ShiftController, n_now: int, n_prev: int, delta_tau: float) -> float:
    if n_prev <= 0:
        raise ExtinctionError("shift update with empty previous population")
    if n_now <= 0:
        raise ExtinctionError("shift update with empty current population")
    return ctl.shift - ctl.damping / (ctl.update_interval * delta_tau) * math.log(n_now / n_prev)


def mixed_energy(pop: WalkerPopulation, src: ElementSource, ref: int):
    """E = H'_00 + sum_{j != 0} H'_{j,0} c_j / c_0 over occupied j, the
    reference 0 at basis position `ref`; None while it is unoccupied.  The
    sum runs over the occupied targets in the reference row's order, one
    term at a time, so its rounding does not depend on the storage."""
    counts = pop.counts
    c_0 = int(counts[ref])
    if c_0 == 0:
        return None
    targets, values = stored_row(src, ref)
    e = float(src.diagonal[ref])
    for h_j0, c_j in zip(values.tolist(), counts[targets].tolist()):
        if c_j:
            e += h_j0 * c_j / c_0
    return e


# ---------------------------------------------------------------------------
# full evolution
# ---------------------------------------------------------------------------

def _check_timestep(src: ElementSource, fresh: list, delta_tau: float,
                    shift: float) -> bool:
    """Warn if delta_tau * (|H'_ii - S| + sum_j |H'_ji|) >= 1 on one of the
    newly occupied positions `fresh`, whose rows are measured; True once the
    warning is given."""
    for p in fresh:
        l1 = abs(src.diagonal[p] - shift) + sum(np.abs(stored_row(src, p)[1]).tolist())
        if delta_tau * l1 >= 1.0:
            warnings.warn(
                f"delta_tau * row L1 magnitude = {delta_tau * l1:.3f} >= 1 on index "
                f"{src.basis[p]}; the stochastic propagator is a poor approximation "
                "at this step size", stacklevel=3)
            return True
    return False


def run(src: ElementSource, cfg: RunConfig, phi0: int = 0) -> Trajectory:
    """Full trajectory over the elements of `src` from walkers on phi0: spawn,
    death/clone, annihilate each step; shift control; per-step mixed energy
    against phi0.  Bit-reproducible from (cfg, seed) and the source's seed."""
    pop = WalkerPopulation.single(src, phi0, cfg.initial_walkers)
    ref = src.position_of(phi0)
    table = spawn_table(pop, src, cfg.delta_tau)  # measures the reference row
    ctl = ShiftController(
        shift=float(src.diagonal[ref]),
        damping=cfg.damping,
        update_interval=cfg.update_interval,
        threshold=cfg.threshold,
    )
    traj = Trajectory(config=cfg, reference=phi0)
    rng = KeyedStreams(cfg.seed).stream(ENGINE)  # not the source's; see the module notes
    # the timestep check runs on each position's first occupation, until it
    # warns or every position has been checked
    unchecked = np.ones(len(src.basis), dtype=bool)
    n_unchecked = len(unchecked)
    traj.records.append(TrajectoryRecord(
        0, 0.0, ctl.shift, pop.total_walkers, pop.n_occupied, mixed_energy(pop, src, ref)
    ))
    for step in range(1, cfg.n_steps + 1):
        if measure_rows(pop, src) != len(table.rows):
            del table  # one table alive at a time: drop the old before the new allocates
            table = SpawnTable(src, cfg.delta_tau)
        if n_unchecked:
            fresh = (unchecked & (pop.counts != 0)).nonzero()[0]
            unchecked[fresh] = False
            n_unchecked -= len(fresh)
            if _check_timestep(src, fresh.tolist(), cfg.delta_tau, ctl.shift):
                n_unchecked = 0
        pop = advance(pop, table, ctl.shift, rng)
        total = pop.total_walkers
        if total == 0:
            raise ExtinctionError(f"population died out at step {step}")
        ctl.observe(step, total, cfg.delta_tau)
        traj.records.append(TrajectoryRecord(
            step, step * cfg.delta_tau, ctl.shift, total, pop.n_occupied,
            mixed_energy(pop, src, ref),
        ))
    return traj


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

# samples spread over at most this many ulps are one value up to roundoff,
# such as a mixed energy that an exact basis makes constant
ROUNDOFF_ULPS = 64

MIN_SAMPLES = 16  # the fewest post-equilibration samples, and blocks of a level


@dataclass
class BlockingLevel:
    block_size: int
    n_blocks: int
    std_error: float


@dataclass
class Statistics:
    mean: float
    std: float
    std_error: float
    plateau_block_size: int
    n_samples: int
    levels: list = field(default_factory=list)


def blocking_analysis(samples) -> tuple:
    """Flyvbjerg-Petersen blocking: pairwise-average until the error estimate
    plateaus; returns (levels, plateau_level).

    Samples spread over at most ROUNDOFF_ULPS ulps of their magnitude are one
    value up to roundoff, which carries no statistical error: their plateau
    is block size 1 with standard error 0.0."""
    x = np.asarray(samples, dtype=float)
    constant = np.ptp(x) <= ROUNDOFF_ULPS * np.spacing(np.abs(x).max())
    levels = []
    size = 1
    while len(x) >= MIN_SAMPLES:
        n = len(x)
        se = float(np.std(x, ddof=1) / np.sqrt(n))
        levels.append(BlockingLevel(size, n, se))
        if n // 2 < MIN_SAMPLES:
            break
        if n % 2:
            x = x[:-1]
        x = 0.5 * (x[0::2] + x[1::2])
        size *= 2
    if constant:
        return levels, BlockingLevel(1, levels[0].n_blocks, 0.0)
    plateau = levels[-1]
    for prev, cur in zip(levels, levels[1:]):
        # growth within 3% reads as the plateau; later levels only add noise
        if cur.std_error < prev.std_error * 1.03:
            plateau = cur
            break
    return levels, plateau


def _post_equilibration(traj: Trajectory) -> list:
    """The records from the first post-equilibration one on.

    The cut drops the equilibration fraction of the records that carry a
    mixed energy (the reference is unoccupied on the others), so the energy
    samples and the shift tail start at the same record."""
    valid = [k for k, r in enumerate(traj.records) if r.e_mixed is not None]
    cut = int(traj.config.equilibration_fraction * len(valid))
    return traj.records[valid[cut]:] if cut < len(valid) else []


def statistics(traj: Trajectory) -> Statistics:
    post = _post_equilibration(traj)
    samples = np.asarray([r.e_mixed for r in post if r.e_mixed is not None], dtype=float)
    if len(samples) < MIN_SAMPLES:
        raise FciqmcError(f"only {len(samples)} post-equilibration samples; "
                          f"need >= {MIN_SAMPLES}")
    levels, plateau = blocking_analysis(samples)
    return Statistics(
        mean=float(np.mean(samples)),
        std=float(np.std(samples, ddof=1)),
        std_error=plateau.std_error,
        plateau_block_size=plateau.block_size,
        n_samples=len(samples),
        levels=levels,
    )


# ---------------------------------------------------------------------------
# trajectory serialization
# ---------------------------------------------------------------------------

CSV_HEADER = ["step", "tau", "shift", "n_walkers", "n_occupied", "e_mixed"]


def trajectory_to_csv(traj: Trajectory) -> str:
    """One line per record, floats as their repr and an empty e_mixed where
    the reference is unoccupied, each line ended by a newline.  No field
    needs quoting, so these are the bytes `csv.writer` writes."""
    rows = (f"{r.step},{r.tau!r},{r.shift!r},{r.n_walkers},{r.n_occupied},"
            f"{'' if r.e_mixed is None else repr(r.e_mixed)}" for r in traj.records)
    return "\n".join([",".join(CSV_HEADER), *rows, ""])


def summary_record(traj: Trajectory, stats: Statistics) -> dict:
    cfg = traj.config
    shift_tail = np.asarray([r.shift for r in _post_equilibration(traj)], dtype=float)
    return {
        "mean_e_mixed": stats.mean,
        "std_e_mixed": stats.std,
        "std_error_e_mixed": stats.std_error,
        "blocking_plateau_block_size": stats.plateau_block_size,
        "n_samples": stats.n_samples,
        "mean_shift": float(np.mean(shift_tail)),
        "std_shift": float(np.std(shift_tail, ddof=1)) if len(shift_tail) > 1 else 0.0,
        "final_walkers": traj.records[-1].n_walkers,
        "reference": traj.reference,
        "config": asdict(cfg),
    }

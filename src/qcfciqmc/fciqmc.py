"""Signed-walker projector Monte Carlo in the circuit-rotated basis.

The engine stochastically realizes imaginary-time evolution under
exp(-(H' - S) tau) with H' = U^dag H U served by an ElementSource.  One step:
spawning along off-diagonal connections, death/cloning on the diagonal, then
annihilation of opposite signs.  With the identity circuit this is classical
FCIQMC on the raw determinant basis.

Sign convention that must not be broken: the projector's off-diagonal weight
is -H'_ji, so a child on j inherits sign(i) * (-sign(H'_ji)).  The diagonal
step uses (H'_ii - S) directly.  Getting either sign wrong still "runs" but
projects onto the wrong vector.

Walkers are integers; fractional probabilities round stochastically.  All
randomness for a step comes from one counter-based stream keyed by
(seed, step), with occupied indices visited in ascending order, so a
trajectory is a pure function of (config, seed) no matter how the host
schedules threads.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .matelem import ElementSource, get_element, row_arrays, signed_row
from .simulator import Circuit


class FciqmcError(RuntimeError):
    pass


class ExtinctionError(FciqmcError):
    """The walker population reached zero; the run cannot continue."""


@dataclass
class WalkerPopulation:
    counts: dict = field(default_factory=dict)  # basis index -> signed count

    def __post_init__(self):
        self.counts = {int(i): int(c) for i, c in self.counts.items() if c != 0}

    @property
    def total_walkers(self) -> int:
        return sum(abs(c) for c in self.counts.values())

    @property
    def n_occupied(self) -> int:
        return len(self.counts)

    def occupied(self) -> list:
        return sorted(self.counts)

    @classmethod
    def single(cls, index: int, count: int) -> "WalkerPopulation":
        return cls({index: count})


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
    reference: int | None = None  # default: engine picks the given phi0

    def __post_init__(self):
        if self.delta_tau <= 0:
            raise FciqmcError("delta_tau must be positive")
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

    def energies(self) -> list:
        return [r.e_mixed for r in self.records]


def _step_rng(seed: int, step: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(step,))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# single update rules
# ---------------------------------------------------------------------------

def spawn_step(pop: WalkerPopulation, src: ElementSource, delta_tau: float,
               rng: np.random.Generator) -> dict:
    """Children spawned off every occupied index; accumulated apart from parents.

    Per parent walker on i and connection j: count floor(p) + Bernoulli(frac)
    with p = |H'_ji| delta_tau, child sign = sign(i) * (-sign(H'_ji)).  The
    per-connection Bernoulli sums collapse to one binomial draw per (i, j),
    taken in ascending index order from the step's stream."""
    spawned: dict = {}
    for i in pop.occupied():
        c_i = pop.counts[i]
        n_i = abs(c_i)
        parent_sign = 1 if c_i > 0 else -1
        idx, mags, csigns = row_arrays(src, i)
        if len(idx) == 0:
            continue
        p = mags * delta_tau
        base = np.floor(p)
        counts = n_i * base.astype(np.int64) + rng.binomial(n_i, p - base)
        for j, n_children, s in zip(idx, counts, csigns):
            if n_children:
                j = int(j)
                spawned[j] = spawned.get(j, 0) + parent_sign * int(s) * int(n_children)
    return {j: c for j, c in spawned.items() if c != 0}


def death_clone_step(pop: WalkerPopulation, src: ElementSource, shift: float,
                     delta_tau: float, rng: np.random.Generator) -> WalkerPopulation:
    """Diagonal step: die with probability (H'_ii - S) dt if positive, else clone.

    One vectorized binomial draw covers all occupied indices."""
    occ = pop.occupied()
    if not occ:
        return WalkerPopulation({})
    signed = np.array([pop.counts[i] for i in occ], dtype=np.int64)
    n = np.abs(signed)
    d = np.array([(get_element(src, i, i) - shift) * delta_tau for i in occ])
    if np.any(np.abs(d) > 1.0):
        worst = float(np.abs(d).max())
        warnings.warn(
            f"death/clone probability {worst:.3f} clamped to 1; reduce delta_tau",
            stacklevel=2,
        )
        d = np.clip(d, -1.0, 1.0)
    flips = rng.binomial(n, np.abs(d))
    n_new = np.where(d > 0, n - flips, n + flips)
    out = {}
    for i, c_old, nn in zip(occ, signed, n_new):
        if nn:
            out[i] = int(nn) if c_old > 0 else -int(nn)
    return WalkerPopulation(out)


def annihilate(parents: WalkerPopulation, spawned: dict) -> WalkerPopulation:
    """Signed per-index sum; exact cancellation removes the entry."""
    out = dict(parents.counts)
    for j, c in spawned.items():
        out[j] = out.get(j, 0) + c
    return WalkerPopulation(out)


def update_shift(ctl: ShiftController, n_now: int, n_prev: int, delta_tau: float) -> float:
    if n_prev <= 0:
        raise ExtinctionError("shift update with empty previous population")
    if n_now <= 0:
        raise ExtinctionError("shift update with empty current population")
    return ctl.shift - ctl.damping / (ctl.update_interval * delta_tau) * math.log(n_now / n_prev)


def mixed_energy(pop: WalkerPopulation, src: ElementSource, phi0: int):
    """E = H'_00 + sum_{j != 0} H'_{j,phi0} c_j / c_0 over occupied j.

    Returns None while the reference is unoccupied (estimate undefined)."""
    c_0 = pop.counts.get(phi0, 0)
    if c_0 == 0:
        return None
    e = get_element(src, phi0, phi0)
    for (j, h_j0) in signed_row(src, phi0):
        c_j = pop.counts.get(j, 0)
        if c_j:
            e += h_j0 * c_j / c_0
    return float(e)


# ---------------------------------------------------------------------------
# full evolution
# ---------------------------------------------------------------------------

def _check_timestep(src: ElementSource, i: int, delta_tau: float, shift: float,
                    checked: set, warned: list) -> None:
    if i in checked or warned:
        return
    checked.add(i)
    l1 = abs(get_element(src, i, i) - shift) + sum(abs(v) for (_, v) in signed_row(src, i))
    if delta_tau * l1 >= 1.0:
        warnings.warn(
            f"delta_tau * row L1 magnitude = {delta_tau * l1:.3f} >= 1 on index {i}; "
            "the stochastic propagator is a poor approximation at this step size",
            stacklevel=3,
        )
        warned.append(True)


def run(h, circuit: Circuit, params, cfg: RunConfig, backend=None,
        source: ElementSource | None = None, phi0: int | None = None) -> Trajectory:
    """Full trajectory: spawn, death/clone, annihilate each step; shift control;
    per-step mixed energy.  Bit-reproducible from (cfg, seed)."""
    src = source if source is not None else ElementSource(
        h, circuit, params, backend=backend, seed=cfg.seed
    )
    if phi0 is None:
        phi0 = cfg.reference if cfg.reference is not None else 0
    pop = WalkerPopulation.single(phi0, cfg.initial_walkers)
    e_ref = get_element(src, phi0, phi0)
    ctl = ShiftController(
        shift=e_ref,
        damping=cfg.damping,
        update_interval=cfg.update_interval,
        threshold=cfg.threshold,
    )
    traj = Trajectory(config=cfg, reference=phi0)
    warned: list = []
    checked: set = set()
    traj.records.append(TrajectoryRecord(
        0, 0.0, ctl.shift, pop.total_walkers, pop.n_occupied, mixed_energy(pop, src, phi0)
    ))
    for step in range(1, cfg.n_steps + 1):
        rng = _step_rng(cfg.seed, step)
        for i in pop.occupied():
            _check_timestep(src, i, cfg.delta_tau, ctl.shift, checked, warned)
        spawned = spawn_step(pop, src, cfg.delta_tau, rng)
        survivors = death_clone_step(pop, src, ctl.shift, cfg.delta_tau, rng)
        pop = annihilate(survivors, spawned)
        total = pop.total_walkers
        if total == 0:
            raise ExtinctionError(f"population died out at step {step}")
        ctl.observe(step, total, cfg.delta_tau)
        traj.records.append(TrajectoryRecord(
            step, step * cfg.delta_tau, ctl.shift, total, pop.n_occupied,
            mixed_energy(pop, src, phi0),
        ))
    return traj


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

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
    plateaus; returns (levels, plateau_level)."""
    x = np.asarray(samples, dtype=float)
    levels = []
    size = 1
    while len(x) >= 16:
        n = len(x)
        se = float(np.std(x, ddof=1) / np.sqrt(n))
        levels.append(BlockingLevel(size, n, se))
        if n // 2 < 16:
            break
        if n % 2:
            x = x[:-1]
        x = 0.5 * (x[0::2] + x[1::2])
        size *= 2
    plateau = levels[-1]
    for prev, cur in zip(levels, levels[1:]):
        # growth within 3% reads as the plateau; later levels only add noise
        if cur.std_error < prev.std_error * 1.03:
            plateau = cur
            break
    return levels, plateau


def statistics(traj: Trajectory, cfg: RunConfig | None = None) -> Statistics:
    cfg = cfg if cfg is not None else traj.config
    series = [e for e in traj.energies() if e is not None]
    cut = int(cfg.equilibration_fraction * len(series))
    samples = np.asarray(series[cut:], dtype=float)
    if len(samples) < 16:
        raise FciqmcError(f"only {len(samples)} post-equilibration samples; need >= 16")
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in traj.records:
        writer.writerow([
            r.step,
            repr(r.tau),
            repr(r.shift),
            r.n_walkers,
            r.n_occupied,
            "" if r.e_mixed is None else repr(r.e_mixed),
        ])
    return buf.getvalue()


def trajectory_from_csv(text: str) -> Trajectory:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise FciqmcError(f"unexpected trajectory header {header!r}")
    traj = Trajectory()
    for row in reader:
        if not row:
            continue
        traj.records.append(TrajectoryRecord(
            int(row[0]), float(row[1]), float(row[2]), int(row[3]), int(row[4]),
            None if row[5] == "" else float(row[5]),
        ))
    return traj


def summary_record(traj: Trajectory, stats: Statistics) -> dict:
    cfg = traj.config
    post = [r for r in traj.records[int(len(traj.records) * cfg.equilibration_fraction):]]
    shift_tail = np.asarray([r.shift for r in post], dtype=float)
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
        "config": {
            "delta_tau": cfg.delta_tau,
            "total_time": cfg.total_time,
            "initial_walkers": cfg.initial_walkers,
            "seed": cfg.seed,
            "damping": cfg.damping,
            "update_interval": cfg.update_interval,
            "threshold": cfg.threshold,
            "equilibration_fraction": cfg.equilibration_fraction,
        },
    }

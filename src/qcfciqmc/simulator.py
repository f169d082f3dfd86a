"""Dense statevector simulation of Pauli-exponential circuits.

A PauliRotation gate realizes exp(-i * angle/2 * W) for a Pauli word W,
through the identity exp(-i a/2 W) = cos(a/2) I - i sin(a/2) W.  Parametric
gates carry a slot index into the parameter vector and a scale: effective
angle = scale * params[slot].  A `Circuit` is frozen: its gates are a tuple
and its slot count is taken once, at construction, so a circuit that grows
is a new circuit.

A circuit is applied one way, in two parts.  `circuit_layout` builds what
does not depend on the parameters, once per (circuit, basis).  The basis is
a sorted array of d indices: the full 2^n space by default, or a
particle-number sector.  Each maximal stretch of gates that share an X mask
x and pairwise commute (their words' Y counts have equal parity) is one run
v -> a * v + b * v[t ^ x].  The layout holds each run's partner map over the
basis positions, plus one zero sentinel slot that stands for every label
outside the basis; the run's closed label set, the union of its labels L
and L ^ x, laid out in pairs (t, t ^ x); and each gate's word phases on that
set.  A basis flip moves no data: it relabels the positions.  H's X groups
are compiled over the output labels once per sum.  The layout also lays all
runs' closed sets side by side, longest run first, with per gate position
tables of the runs that have a gate there.  `CircuitLayout.compile` is the
step run once per parameter vector: it composes every run over its closed
set at once, one vector update per gate position for all runs that have a
gate there, and keeps a and b at each run's labels, all real when the
whole circuit is, else all complex.  Each entry is computed
as it would be over the full space, so a and b at the labels do not depend
on the basis.  A run that would move weight out of the basis is an error
there.  `compile_circuit` does both in one call.

`transformed_columns`, the one source of columns of H' = U^dag H U, applies
the compiled form and the X-grouped H, compiled over the same positions, and
returns (d, k) blocks whose rows follow the basis order.  The variational
layer (`vqa`) reads energies and the run-level adjoint gradient from the
same compiled runs, and `apply_circuit` and `amplitude_vector` are the full
space's compiled runs for states indexed by basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import PauliSum, PauliWord, apply_pauli_sum, word_phases


class SimulatorError(ValueError):
    pass


class LeakError(SimulatorError):
    """A compiled run or H group would move weight out of its basis."""


@dataclass(frozen=True)
class PauliRotation:
    word: PauliWord
    slot: int | None = None
    scale: float = 1.0
    angle: float = 0.0  # used when slot is None


@dataclass(frozen=True)
class PauliApply:
    word: PauliWord


@dataclass(frozen=True)
class BasisFlip:
    qubit: int


@dataclass(frozen=True)
class Circuit:
    """An immutable gate sequence; `n_slots` (one past the highest parameter
    slot a rotation reads) is taken once, when the circuit is built.  A gate
    word of another size, a flip outside [0, n_qubits), a negative slot and
    a rotation with a non-finite scale or fixed angle are errors."""

    n_qubits: int
    gates: tuple = ()
    n_slots: int = field(init=False, compare=False)

    def __post_init__(self):
        gates = tuple(self.gates)
        for g in gates:
            w = getattr(g, "word", None)
            if w is not None and w.n_qubits != self.n_qubits:
                raise SimulatorError("gate word size mismatch")
            if isinstance(g, BasisFlip) and not 0 <= g.qubit < self.n_qubits:
                raise SimulatorError(f"flip of qubit {g.qubit} outside [0, {self.n_qubits})")
            if isinstance(g, PauliRotation) and not (math.isfinite(g.scale)
                                                    and math.isfinite(g.angle)):
                raise SimulatorError(f"rotation with scale {g.scale} and angle {g.angle}: "
                                     "both must be finite")
        slots = [g.slot for g in gates if isinstance(g, PauliRotation) and g.slot is not None]
        if slots and min(slots) < 0:
            raise SimulatorError(f"negative parameter slot {min(slots)}")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "n_slots", max(slots) + 1 if slots else 0)


def _full_space(vec: np.ndarray, circuit: Circuit, params) -> CompiledCircuit:
    """The circuit compiled over all 2^n indices, for a (2^n,) state."""
    if len(vec) != 1 << circuit.n_qubits:
        raise SimulatorError("state / circuit dimension mismatch")
    return compile_circuit(circuit, params)


def apply_circuit(vec: np.ndarray, circuit: Circuit, params=()) -> np.ndarray:
    """U vec for a (2^n,) state, as a new complex array."""
    compiled = _full_space(vec, circuit, params)
    out = np.empty(vec.shape, dtype=complex)
    out[compiled.labels] = compiled.apply(vec.astype(complex))
    return out


def expectation(vec: np.ndarray, h: PauliSum) -> float:
    """<psi|H|psi> for Hermitian H."""
    if not h.hermitian:
        raise SimulatorError("non-Hermitian operator in expectation")
    return float(np.vdot(vec, apply_pauli_sum(h, vec)).real)


def amplitude_vector(vec: np.ndarray, circuit: Circuit, params=()) -> np.ndarray:
    """Entry j equals <j|U^dag|vec>: the state resolved in the circuit basis."""
    compiled = _full_space(vec, circuit, params)
    return compiled.apply(vec.astype(complex)[compiled.labels], invert=True)


# weight a compiled run or H group may move out of the basis, relative to its
# largest coefficient, before compiling over that basis fails
LEAK_TOL = 1e-12


@dataclass(frozen=True)
class RunLayout:
    """The parameter-free part of one run: consecutive gates that share one
    X mask x and pairwise commute.

    `partner[p]` is the position of label t ^ x for the label t at position
    p, with the sentinel's own entry last.  The run composes over its closed
    set, laid out as a (2, h) array of labels whose second row is the first
    row ^ x, so a label's partner sits in the other row, same column (for
    x = 0 both rows hold the run's labels).  Row g of `phases` holds gate g's
    word phases on it, and `labels_at[p]` is the flat index in it of the
    label at position p.  `edge` holds the flat indices of both ends of
    every coupling between a position and a label outside the basis.
    `slot_rows`, `slots` and `scales` name the run's parametric rotations."""

    x: int
    name: str
    gates: tuple
    partner: np.ndarray  # (d + 1,)
    labels_at: np.ndarray  # (d,)
    edge: np.ndarray
    phases: np.ndarray  # (len(gates), 2, h), complex
    slot_rows: np.ndarray
    slots: np.ndarray
    scales: np.ndarray


@dataclass(frozen=True)
class Lockstep:
    """The parameter-free tables that compose every run of a layout at once,
    gate position by gate position; built once per layout.

    The runs' closed sets sit side by side on one column axis of width w,
    longest run first (`order` holds their run indices, ties in circuit
    order; `sizes` and `starts` their closed sets' sizes and first columns),
    so the `active[k]` runs that have a k-th gate hold a prefix of the
    columns, `widths[k]` wide.  The gates are listed position by position,
    each position's in that order: their parameter slot (-1 for a fixed
    angle or a PauliApply), scale and fixed angle, and `fixed`, which marks
    the gates that take their fixed angle (None when no gate does).  The
    per-column tables run over the positions' prefixes one after the other,
    not padded: `applies` marks a PauliApply's columns (None when there is
    none), and `phases` (2, sum of widths) holds the gates' word phases as
    complex64, which holds their values, +-1 and +-i, exactly.

    The composed a and b sit in a (2, 2 w + 1) stack: a run's closed-set
    entry (row, column) at row * w + column, then one zero entry.
    `gather[r]` holds the stack indices of run r's labels at the basis
    positions and the zero for the sentinel.  `edge` holds the stack
    indices of every run's edge, run after run in circuit order;
    `edge_starts` marks where each run's begin and `edge_runs` gives those
    runs' places in `order`."""

    order: np.ndarray  # (R,)
    sizes: np.ndarray  # (R,)
    starts: np.ndarray  # (R,)
    active: tuple
    widths: tuple
    slots: np.ndarray
    scales: np.ndarray
    angles: np.ndarray
    fixed: np.ndarray | None
    applies: np.ndarray | None
    phases: np.ndarray
    gather: np.ndarray  # (R, d + 1)
    edge: np.ndarray
    edge_starts: np.ndarray
    edge_runs: np.ndarray


@dataclass(frozen=True)
class CircuitLayout:
    """What compiling a circuit over a sorted basis of d indices needs
    besides the parameters: its runs' layouts, the lockstep tables that
    compose them and the labels.

    Basis flips move no data: they relabel the positions, so position p
    holds label basis[p] before U and labels[p] after it.  A Pauli sum is
    grouped over `labels` once per sum, on first use, and kept here."""

    n_slots: int
    basis: np.ndarray  # (d,) ascending
    labels: np.ndarray  # (d,) the label at each position after U
    position: np.ndarray  # (2^n,) the position of each basis index; d outside
    runs: tuple  # RunLayout per run
    lockstep: Lockstep
    _sums: dict = field(default_factory=dict, compare=False, repr=False)

    def compile(self, params) -> CompiledCircuit:
        """The circuit at `params`, every run composed over its closed set at
        once, gate position by gate position, and kept at its labels.

        A gate (a2, b2) after a run's (A, B) gives A' = a2 A + b2 B[t ^ x]
        and B' = a2 B + b2 A[t ^ x]: one product with the (B, A) swap, read
        with its rows swapped.  A rotation by angle a has a2 = cos(a/2) and
        b2 = -i sin(a/2) times its phases; a PauliApply has a2 = 0 and
        b2 = its phases.  Each entry goes through the same operations in the
        same order as when the run is composed alone, gate by gate.  The
        compiled arrays stay float64 when every run's are real, which holds
        for the real-rotation layered ansatz and the ADAPT pool; otherwise
        every run is complex.  A run that moves weight above
        LEAK_TOL of its largest coefficient out of the basis raises
        LeakError naming it, the first such run in circuit order."""
        if self.n_slots > len(params):
            raise SimulatorError(f"need {self.n_slots} parameters, got {len(params)}")
        if not self.runs:
            return CompiledCircuit(self, (), (), np.dtype(float))
        s = self.lockstep
        values = np.append(np.asarray(params, dtype=float), 0.0)  # slot -1 reads the 0
        angle = s.scales * values[s.slots]
        if s.fixed is not None:
            angle = np.where(s.fixed, s.angles, angle)
        half = 0.5 * angle
        a2, i_sin = np.cos(half), -1j * np.sin(half)
        w = s.widths[0]
        stack = np.zeros((2, 2 * w + 1), dtype=complex)
        ab = stack[:, :-1].reshape(2, 2, w)
        gate = column = 0
        for k, (n, width) in enumerate(zip(s.active, s.widths)):
            sizes, phases = s.sizes[:n], s.phases[:, column:column + width]
            ga = np.repeat(a2[gate:gate + n], sizes)
            gb = np.repeat(i_sin[gate:gate + n], sizes) * phases
            if s.applies is not None:
                applies = s.applies[column:column + width]
                ga, gb = np.where(applies, 0.0, ga), np.where(applies, phases, gb)
            if k == 0:
                ab[0], ab[1] = ga, gb
            else:
                a_now, b_now = ab[0, :, :width], ab[1, :, :width]
                b_term = gb * a_now[::-1]
                a_term = np.multiply(gb, b_now[::-1], out=gb)
                a_now *= ga
                a_now += a_term
                b_now *= ga
                b_now += b_term
            gate, column = gate + n, column + width
        if not stack.imag.any():
            stack = stack.real
        if len(s.edge):
            magnitude = np.abs(stack)
            largest = np.maximum.reduceat(magnitude[:, :-1].reshape(4, w).max(axis=0),
                                          s.starts)[s.edge_runs]
            leak = np.maximum.reduceat(magnitude[1, s.edge], s.edge_starts)
            bad = np.flatnonzero(leak > LEAK_TOL * largest)
            if len(bad):
                k = bad[0]
                _check_conserved(self.runs[s.order[s.edge_runs[k]]].name, leak[k:k + 1],
                                 largest[k])
        at = stack.take(s.gather, axis=1)[..., None]  # a and b with the sentinel, (2, R, d + 1, 1)
        partners = [r.partner for r in self.runs]
        runs = tuple(zip(*at, partners))
        inverse = tuple(zip(*at.conj(), partners)) if at.dtype.kind == "c" else runs
        return CompiledCircuit(self, runs, inverse[::-1], at.dtype)

    def grouped(self, h: PauliSum) -> tuple:
        """H's X groups over `labels` as ((partner, phases), ...), phases
        (d + 1, 1) with the sentinel entry; built once per sum."""
        g = h.grouped
        hit = self._sums.get(id(g))
        if hit is None:
            if g.masks and g.phases.shape[1] != len(self.position):
                raise SimulatorError("Hamiltonian / circuit dimension mismatch")
            groups = []
            for x, phases in zip(g.masks, g.phases):
                partner = _partners(self.position, self.basis, x)
                out = partner[:-1] == len(self.labels)
                if out.any():
                    inside = self.labels[out]
                    _check_conserved(f"Hamiltonian group with X mask {x:#x}",
                                     np.concatenate([phases[inside], phases[inside ^ x]]),
                                     np.abs(phases).max())
                groups.append((partner, np.append(phases[self.labels], 0.0)[:, None]))
            hit = self._sums[id(g)] = (g, tuple(groups))  # g pins the id
        return hit[1]


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit at fixed parameters: its layout, `runs`, per run in circuit
    order the arrays (a, b, partner) of v -> a * v + b * v[t ^ x] with the
    run layout's partner, and `inverse`, per run from the last, those of
    v -> conj(a) * v + (conj(b) * v)[t ^ x].  a and b are (d + 1, 1), the
    zero sentinel last, and float64 when the whole circuit is real; the
    conjugates are then the arrays themselves."""

    layout: CircuitLayout
    runs: tuple
    inverse: tuple
    dtype: np.dtype  # float64 when the whole circuit is real

    @property
    def basis(self) -> np.ndarray:
        return self.layout.basis

    @property
    def labels(self) -> np.ndarray:
        return self.layout.labels

    @property
    def position(self) -> np.ndarray:
        return self.layout.position

    def apply(self, vec: np.ndarray, invert: bool = False) -> np.ndarray:
        """U vec for a (d,) state or (d, k) batch over `basis`, as a state
        over `labels`; with invert, U^dag vec from `labels` back to `basis`."""
        d = len(self.basis)
        if len(vec) != d:
            raise SimulatorError("state / basis dimension mismatch")
        padded = np.zeros((d + 1, vec.size // d), dtype=vec.dtype)
        padded[:d] = vec.reshape(d, -1)
        out = self.adjoint(padded) if invert else self.forward(padded)
        return out[:d].reshape(vec.shape)

    def forward(self, vec: np.ndarray) -> np.ndarray:
        """U on a (d + 1, k) batch whose last row is the zero sentinel."""
        for a, b, partner in self.runs:
            vec = a * vec + b * vec.take(partner, axis=0)
        return vec

    def adjoint(self, vec: np.ndarray) -> np.ndarray:
        """U^dag on a padded batch."""
        for vec in self.unwind(vec):
            pass
        return vec

    def unwind(self, vec: np.ndarray):
        """U^dag on a padded batch one run at a time: yields the batch at
        each run's output, last run first, then U^dag vec."""
        for a, b, partner in self.inverse:
            yield vec
            vec = a * vec + (b * vec).take(partner, axis=0)
        yield vec

    def apply_sum(self, h: PauliSum, vec: np.ndarray) -> np.ndarray:
        """H on a padded (d + 1, k) batch over `labels`; the result is real
        only when both the batch and the grouped H are."""
        groups = self.layout.grouped(h)
        out = np.zeros(vec.shape, dtype=np.result_type(vec, h.grouped.phases))
        for partner, phases in groups:
            out += phases * vec.take(partner, axis=0)
        return out


def _partners(position: np.ndarray, basis: np.ndarray, x: int) -> np.ndarray:
    """The positions of labels ^ x, with the sentinel's own entry.  The flips
    before a run cancel: if labels = basis ^ f, then labels ^ x lies in the
    current set exactly when basis ^ x lies in the basis, at its position."""
    return np.append(position[basis ^ x], len(basis))


def _check_conserved(name: str, b_at_edge: np.ndarray, scale: float) -> None:
    """Raise unless b is negligible at both ends of every coupling of
    v -> b * v[t ^ x] between the label set and a label outside it: at
    labels outside whose partner is inside (U moves weight out) and at
    labels inside whose partner is outside (U^dag does)."""
    leak = np.abs(b_at_edge).max()
    if leak > LEAK_TOL * scale:
        raise LeakError(f"{name} moves weight {leak:.3e} out of the basis "
                        f"(largest coefficient {scale:.3e})")


def _run_key(g) -> tuple:
    """(x, parity) of a gate: gates of one run share the X mask x, and
    same-X words commute exactly when their Y counts have equal parity.
    The parity is None for a flip."""
    if isinstance(g, (PauliRotation, PauliApply)):
        return g.word.x_mask, g.word.y_count & 1
    if isinstance(g, BasisFlip):
        return 1 << g.qubit, None
    raise SimulatorError(f"unknown gate {g!r}")


def _lockstep(runs: list, d: int) -> Lockstep:
    """The lockstep tables of `runs` over a basis of d positions."""
    lengths = np.array([len(r.gates) for r in runs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    sizes = np.array([runs[j].phases.shape[2] for j in order], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    w = int(ends[-1]) if len(runs) else 0
    gates, phases, active, applies = [], [], [], []
    for k in range(int(lengths.max()) if len(runs) else 0):
        active.append(int(np.count_nonzero(lengths > k)))
        step = [runs[j] for j in order[:active[-1]]]
        gates += [r.gates[k] for r in step]
        phases += [r.phases[k] for r in step]
        applies += [np.full(r.phases.shape[2], isinstance(r.gates[k], PauliApply)) for r in step]
    slotted = np.array([isinstance(g, PauliRotation) and g.slot is not None for g in gates],
                       dtype=bool)
    applies = np.concatenate(applies) if applies else np.zeros(0, dtype=bool)
    place = np.empty(len(runs), dtype=np.int64)
    place[order] = np.arange(len(runs))

    def at_stack(j: int, flat: np.ndarray) -> np.ndarray:
        """Stack indices of run j's flat closed-set indices."""
        h = runs[j].phases.shape[2]
        return flat // h * w + starts[place[j]] + flat % h

    gather = np.full((len(runs), d + 1), 2 * w, dtype=np.int64)
    for j, r in enumerate(runs):
        gather[j, :d] = at_stack(j, r.labels_at)
    with_edge = [j for j, r in enumerate(runs) if len(r.edge)]
    edges = [at_stack(j, runs[j].edge) for j in with_edge]
    return Lockstep(
        order=order,
        sizes=sizes,
        starts=starts,
        active=tuple(active),
        widths=tuple(int(ends[n - 1]) for n in active),
        slots=np.array([g.slot if s else -1 for g, s in zip(gates, slotted)], dtype=np.int64),
        scales=np.array([g.scale if s else 1.0 for g, s in zip(gates, slotted)]),
        angles=np.array([getattr(g, "angle", 0.0) for g in gates]),
        fixed=None if slotted.all() else ~slotted,
        applies=applies if applies.any() else None,
        phases=np.concatenate(phases, axis=1, dtype=np.complex64) if phases
        else np.zeros((2, 0), dtype=np.complex64),
        gather=gather,
        edge=np.concatenate(edges) if edges else np.zeros(0, dtype=np.int64),
        edge_starts=np.cumsum([0] + [len(e) for e in edges[:-1]]).astype(np.int64),
        edge_runs=place[with_edge],
    )


def circuit_layout(circuit: Circuit, basis=None) -> CircuitLayout:
    """The parameter-free part of compiling `circuit` over `basis`, a sorted
    array of indices (all 2^n when None).  Consecutive basis flips merge
    into one relabelling."""
    dim = 1 << circuit.n_qubits
    basis = np.arange(dim) if basis is None else np.asarray(basis, dtype=np.int64)
    if basis.ndim != 1 or not len(basis) or basis[0] < 0 or basis[-1] >= dim \
            or (np.diff(basis) <= 0).any():
        raise SimulatorError(f"a basis must be non-empty ascending indices in [0, {dim})")
    d = len(basis)
    position = np.full(dim, d, dtype=np.int64)
    position[basis] = np.arange(d)
    spans: list = []  # [x, parity, gates, first, last]; parity is None for flips
    for k, g in enumerate(circuit.gates):
        x, parity = _run_key(g)
        last = spans[-1] if spans else None
        if last is not None and parity is None and last[1] is None:
            last[0] ^= x
            last[4] = k
        elif last is not None and parity is not None and last[:2] == [x, parity]:
            last[2].append(g)
            last[4] = k
        else:
            spans.append([x, parity, [g], k, k])
    labels, flips = basis, 0
    runs = []
    for x, parity, gates, first, last in spans:
        if parity is None:
            labels, flips = labels ^ x, flips ^ x
            continue
        pairs = np.zeros(dim, dtype=bool)  # each pair {t, t ^ x} marked at its lower label
        pairs[np.minimum(labels, labels ^ x)] = True
        half = np.flatnonzero(pairs)
        closed = np.stack([half, half ^ x])
        flat = closed.ravel()
        inside = position[flat ^ flips] < d  # the labels at the positions
        labels_at = np.empty(d, dtype=np.int64)
        labels_at[position[flat[inside] ^ flips]] = np.flatnonzero(inside)
        slot_rows = [k for k, g in enumerate(gates)
                     if isinstance(g, PauliRotation) and g.slot is not None]
        runs.append(RunLayout(
            x=x,
            name=f"gate run {len(runs)} (gates {first}-{last}, X mask {x:#x})",
            gates=tuple(gates),
            partner=_partners(position, basis, x),
            labels_at=labels_at,
            edge=np.flatnonzero(inside != np.roll(inside, len(half))),
            phases=np.array([word_phases(g.word, closed) for g in gates]),
            slot_rows=np.array(slot_rows, dtype=np.int64),
            slots=np.array([gates[k].slot for k in slot_rows], dtype=np.int64),
            scales=np.array([gates[k].scale for k in slot_rows], dtype=float),
        ))
    return CircuitLayout(circuit.n_slots, basis, labels, position, tuple(runs),
                         _lockstep(runs, d))


def compile_circuit(circuit: Circuit, params=(), basis=None) -> CompiledCircuit:
    """The circuit at fixed parameters, compiled into gate runs over `basis`,
    a sorted array of indices (all 2^n when None): `circuit_layout` and its
    `compile` in one call.

    Over a basis smaller than the full space, the circuit must keep the
    basis, relabelled by its flips, closed: a run that would move weight
    above LEAK_TOL of its largest coefficient out of it raises LeakError
    naming the run."""
    return circuit_layout(circuit, basis).compile(params)


# columns per batch in transformed_columns: bounds the working set at
# d x 256 complex doubles per temporary, 20 MB at the dense limit of 4900
_COLUMN_BLOCK = 256


def transformed_columns(h: PauliSum, compiled: CompiledCircuit, indices) -> np.ndarray:
    """Columns of H' = U^dag H U at the given basis indices, as a (d, k) matrix
    over the compiled circuit's basis.

    Entry (p, m) equals <basis[p]|U^dag H U|indices[m]>.  The basis columns go
    through the compiled circuit as one batch, then the grouped H, then the
    inverse circuit; every step is elementwise per column, so a column comes
    out bit for bit the same whatever batch it rides in.  The result is real
    when the compiled circuit and the grouped H are."""
    indices = np.asarray(indices, dtype=np.int64)
    d = len(compiled.basis)
    if len(indices) and (indices.min() < 0 or indices.max() >= len(compiled.position)):
        raise SimulatorError("column index out of range")
    pos = compiled.position[indices]
    if (pos == d).any():
        raise SimulatorError(f"column index {indices[pos == d][0]} is not in the basis")
    dtype = np.result_type(compiled.dtype, h.grouped.phases)
    out = np.empty((d, len(indices)), dtype=dtype)
    for start in range(0, len(indices), _COLUMN_BLOCK):
        block = pos[start:start + _COLUMN_BLOCK]
        state = np.zeros((d + 1, len(block)))
        state[block, np.arange(len(block))] = 1.0
        state = compiled.forward(state)
        out[:, start:start + len(block)] = compiled.adjoint(compiled.apply_sum(h, state))[:d]
    return out

"""Dense statevector simulation of Pauli-exponential circuits.

A PauliRotation gate realizes exp(-i * angle/2 * W) for a Pauli word W, applied
through the identity exp(-i a/2 W) = cos(a/2) I - i sin(a/2) W, so each gate
costs one vectorized Pauli action.  Parametric gates carry a slot index into
the parameter vector and a scale: effective angle = scale * params[slot].
A `Circuit` is frozen: its gates are a tuple and its slot count is taken
once, at construction, so a circuit that grows is a new circuit.  States
are plain numpy arrays, (2^n,) or a (2^n, k) batch of columns.

Two paths apply a circuit.  `apply_gates` goes gate by gate; the variational
gradient needs the state between gates, and its parameters change on every
call.  Each gate reads its word's gather form from the per-word cache of
`operators.word_gather`, so a VQE builds each distinct word's phases and
permutation once per process, and every rotation goes through
`rotation_step`, which the adjoint gradient also calls with the W pair it
has already formed.  `compile_circuit` fixes the parameters and folds each
maximal stretch of gates that share an X mask x into one run
v -> a * v + b * v[t ^ x], so a circuit costs one gather per run.  It
compiles over a sorted basis of d indices, the full 2^n space by default
or a particle-number sector: every run becomes a precomputed gather map over
the basis positions plus one zero sentinel slot that stands for every label
outside the basis, and a basis flip only relabels the positions.  A run
that would move weight out of the basis is an error when the maps are
built.  `transformed_columns`, the one source of columns of H' = U^dag H U,
applies the compiled form and the X-grouped H, compiled over the same
positions, and returns (d, k) blocks whose rows follow the basis order.
The compiled path reads each word once per compile and builds its phases
directly, outside the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import PauliSum, PauliWord, apply_pauli_sum, apply_word, word_phases


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
    slot a rotation reads) is taken once, when the circuit is built."""

    n_qubits: int
    gates: tuple = ()
    n_slots: int = field(init=False, compare=False)

    def __post_init__(self):
        gates = tuple(self.gates)
        for g in gates:
            w = getattr(g, "word", None)
            if w is not None and w.n_qubits != self.n_qubits:
                raise SimulatorError("gate word size mismatch")
        slots = [g.slot for g in gates if isinstance(g, PauliRotation) and g.slot is not None]
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "n_slots", max(slots) + 1 if slots else 0)


def _gate_angle(g: PauliRotation, params) -> float:
    if g.slot is None:
        return g.angle
    return g.scale * float(params[g.slot])


def rotation_step(g: PauliRotation, vec: np.ndarray, w_vec: np.ndarray, params,
                  invert: bool = False) -> np.ndarray:
    """exp(-i a/2 W) vec for the gate's angle a, or its inverse with invert,
    given w_vec = W vec: cos(a/2) vec - i sin(a/2) w_vec.  The one rotation
    formula of the gate-by-gate path; the adjoint gradient passes the W vec it
    has already formed for the derivative."""
    a = _gate_angle(g, params)
    if invert:
        a = -a
    return np.cos(0.5 * a) * vec - 1j * np.sin(0.5 * a) * w_vec


def apply_gates(vec: np.ndarray, n_qubits: int, gates, params, invert: bool = False):
    """The gates applied in order to a statevector or (2^n, k) batch; with
    invert, their inverses in reverse order (the adjoint of the sequence)."""
    seq = reversed(gates) if invert else gates
    for g in seq:
        if isinstance(g, PauliRotation):
            vec = rotation_step(g, vec, apply_word(g.word, vec), params, invert)
        elif isinstance(g, PauliApply):
            vec = apply_word(g.word, vec)
        elif isinstance(g, BasisFlip):
            vec = apply_word(PauliWord(n_qubits, 1 << g.qubit, 0), vec)
        else:
            raise SimulatorError(f"unknown gate {g!r}")
    return vec


def _check_params(circuit: Circuit, params) -> None:
    if circuit.n_slots > len(params):
        raise SimulatorError(f"need {circuit.n_slots} parameters, got {len(params)}")


def _check_state(vec: np.ndarray, circuit: Circuit, params) -> None:
    if len(vec) != 1 << circuit.n_qubits:
        raise SimulatorError("state / circuit dimension mismatch")
    _check_params(circuit, params)


def apply_circuit(vec: np.ndarray, circuit: Circuit, params=()) -> np.ndarray:
    """U vec for a (2^n,) state, as a new complex array."""
    _check_state(vec, circuit, params)
    return apply_gates(vec.astype(complex), circuit.n_qubits, circuit.gates, params)


def expectation(vec: np.ndarray, h: PauliSum) -> float:
    """<psi|H|psi> for Hermitian H."""
    if not h.hermitian:
        raise SimulatorError("non-Hermitian operator in expectation")
    return float(np.vdot(vec, apply_pauli_sum(h, vec)).real)


def amplitude_vector(vec: np.ndarray, circuit: Circuit, params=()) -> np.ndarray:
    """Entry j equals <j|U^dag|vec>: the state resolved in the circuit basis."""
    _check_state(vec, circuit, params)
    return apply_gates(vec.astype(complex), circuit.n_qubits, circuit.gates, params,
                       invert=True)


# weight a compiled run or H group may move out of the basis, relative to its
# largest coefficient, before compiling over that basis fails
LEAK_TOL = 1e-12


@dataclass(frozen=True)
class GateRun:
    """Consecutive gates sharing one X mask x, as v -> a * v + b * v[t ^ x],
    stored over the positions of a basis.

    `partner[p]` is the position of label t ^ x for the label t at position
    p.  Every array has one more entry than the basis, the zero sentinel slot
    that stands for every label outside it; `a` and `b` are (d + 1, 1), so
    they act on a (d + 1, k) batch column by column."""

    x: int
    partner: np.ndarray
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit at fixed parameters as maximal runs of equal-X-mask gates,
    over a sorted basis of d indices.

    Basis flips move no data: they relabel the positions, so position p
    holds label basis[p] before U and labels[p] after it.  The grouped H is
    compiled over `labels` once per sum, on first use, and kept here."""

    n_qubits: int
    basis: np.ndarray  # (d,) ascending
    labels: np.ndarray  # (d,) the label at each position after U
    position: np.ndarray  # (2^n,) the position of each basis index; d outside
    runs: tuple
    dtype: np.dtype  # float64 when every run is real
    _sums: dict = field(default_factory=dict, compare=False, repr=False)

    def apply(self, vec: np.ndarray, invert: bool = False) -> np.ndarray:
        """U vec for a (d,) state or (d, k) batch over `basis`, as a state
        over `labels`; with invert, U^dag vec from `labels` back to `basis`."""
        d = len(self.basis)
        if len(vec) != d:
            raise SimulatorError("state / basis dimension mismatch")
        padded = np.zeros((d + 1, vec.size // d), dtype=vec.dtype)
        padded[:d] = vec.reshape(d, -1)
        out = self._adjoint(padded) if invert else self._forward(padded)
        return out[:d].reshape(vec.shape)

    def _forward(self, vec: np.ndarray) -> np.ndarray:
        for r in self.runs:
            vec = r.a * vec + r.b * vec.take(r.partner, axis=0)
        return vec

    def _adjoint(self, vec: np.ndarray) -> np.ndarray:
        """The adjoint of a run is conj(a) * v + (conj(b) * v)[t ^ x]."""
        for r in reversed(self.runs):
            vec = r.a.conj() * vec + (r.b.conj() * vec).take(r.partner, axis=0)
        return vec

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
                _check_conserved(f"Hamiltonian group with X mask {x:#x}", phases,
                                 self.labels, x, partner)
                groups.append((partner, _at(phases, self.labels)))
            hit = self._sums[id(g)] = (g, tuple(groups))  # g pins the id
        return hit[1]


def _partners(position: np.ndarray, basis: np.ndarray, x: int) -> np.ndarray:
    """The positions of labels ^ x, with the sentinel's own entry.  The flips
    before a run cancel: if labels = basis ^ f, then labels ^ x lies in the
    current set exactly when basis ^ x lies in the basis, at its position."""
    return np.append(position[basis ^ x], len(basis))


def _at(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """values at labels, plus the zero sentinel entry, as a (d + 1, 1) column."""
    return np.append(values[labels], 0.0)[:, None]


def _check_conserved(name: str, b: np.ndarray, labels: np.ndarray, x: int,
                     partner: np.ndarray, scale: float | None = None) -> None:
    """Raise unless b is negligible wherever v -> b * v[t ^ x] couples the
    label set to a label outside it: at labels outside whose partner is
    inside (U moves weight out) and at labels inside whose partner is
    outside (U^dag does)."""
    out = partner[:-1] == len(labels)
    if not out.any():
        return
    inside = labels[out]
    leak = max(np.abs(b[inside]).max(), np.abs(b[inside ^ x]).max())
    scale = np.abs(b).max() if scale is None else scale
    if leak > LEAK_TOL * scale:
        raise LeakError(f"{name} moves weight {leak:.3e} out of the basis "
                             f"(largest coefficient {scale:.3e})")


def _gate_form(g, params) -> tuple:
    """(x, a, b) of one gate as v -> a * v + b * v[t ^ x], a a scalar and b
    an array; both are None for a flip."""
    if isinstance(g, PauliRotation):
        half = 0.5 * _gate_angle(g, params)
        return g.word.x_mask, np.cos(half), -1j * np.sin(half) * word_phases(g.word)
    if isinstance(g, PauliApply):
        return g.word.x_mask, 0.0, word_phases(g.word)
    if isinstance(g, BasisFlip):
        return 1 << g.qubit, None, None
    raise SimulatorError(f"unknown gate {g!r}")


def compile_circuit(circuit: Circuit, params=(), basis=None) -> CompiledCircuit:
    """The circuit at fixed parameters, compiled once into gate runs over
    `basis`, a sorted array of indices (all 2^n when None).

    Gates compose inside a run: a gate (a2, b2) after (A, B) gives
    A' = a2 A + b2 B[t ^ x] and B' = a2 B + b2 A[t ^ x].  Consecutive basis
    flips merge into one relabelling.  A run is stored as float64 when its
    arrays are real, which holds for the real-rotation layered ansatz.

    Over a basis smaller than the full space, the circuit must keep the
    basis, relabelled by its flips, closed: a run that would move weight
    above LEAK_TOL of its largest coefficient out of it raises LeakError
    naming the run."""
    _check_params(circuit, params)
    dim = 1 << circuit.n_qubits
    idx = np.arange(dim)
    basis = idx if basis is None else np.asarray(basis, dtype=np.int64)
    if basis.ndim != 1 or not len(basis) or basis[0] < 0 or basis[-1] >= dim \
            or (np.diff(basis) <= 0).any():
        raise SimulatorError(f"a basis must be non-empty ascending indices in [0, {dim})")
    position = np.full(dim, len(basis), dtype=np.int64)
    position[basis] = np.arange(len(basis))
    runs: list = []  # [x, A, B, first gate, last gate]; A is None for a flip run
    for k, g in enumerate(circuit.gates):
        x, a, b = _gate_form(g, params)
        last = runs[-1] if runs else None
        if b is None:
            if last is not None and last[1] is None:
                last[0] ^= x
                last[4] = k
            else:
                runs.append([x, None, None, k, k])
        elif last is not None and last[1] is not None and last[0] == x:
            big_a, big_b = last[1], last[2]
            last[1] = a * big_a + b * big_b[idx ^ x]
            last[2] = a * big_b + b * big_a[idx ^ x]
            last[4] = k
        else:
            runs.append([x, np.full(dim, a, dtype=complex), b, k, k])
    labels = basis
    out = []
    for x, a, b, first, last in runs:
        if a is None:
            labels = labels ^ x
            continue
        if not (a.imag.any() or b.imag.any()):
            a, b = a.real.copy(), b.real.copy()
        partner = _partners(position, basis, x)
        _check_conserved(f"gate run {len(out)} (gates {first}-{last}, X mask {x:#x})", b,
                         labels, x, partner, scale=max(np.abs(a).max(), np.abs(b).max()))
        out.append(GateRun(x, partner, _at(a, labels), _at(b, labels)))
    dtype = np.result_type(float, *(r.a for r in out))
    return CompiledCircuit(circuit.n_qubits, basis, labels, position, tuple(out), dtype)


# columns per batch in transformed_columns: bounds the working set at
# d x 256 complex doubles per temporary, 16 MB at the 12-qubit dense limit
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
    groups = compiled.grouped(h)
    dtype = np.result_type(compiled.dtype, h.grouped.phases)
    out = np.empty((d, len(indices)), dtype=dtype)
    for start in range(0, len(indices), _COLUMN_BLOCK):
        block = pos[start:start + _COLUMN_BLOCK]
        state = np.zeros((d + 1, len(block)))
        state[block, np.arange(len(block))] = 1.0
        state = compiled._forward(state)
        h_state = np.zeros(state.shape, dtype=np.result_type(state, h.grouped.phases))
        for partner, phases in groups:
            h_state += phases * state.take(partner, axis=0)
        out[:, start:start + len(block)] = compiled._adjoint(h_state)[:d]
    return out

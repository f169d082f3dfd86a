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
v -> a * v + b * v[t ^ x], so a circuit costs one gather per run;
`transformed_columns`, the one source of columns of H' = U^dag H U, applies
the compiled form and the X-grouped H.  The compiled path reads each word
once per compile and builds its phases directly, outside the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import PauliSum, PauliWord, apply_pauli_sum, apply_word, word_phases


class SimulatorError(ValueError):
    pass


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


@dataclass(frozen=True)
class GateRun:
    """Consecutive gates sharing one X mask x, as v -> a * v + b * v[t ^ x].

    A run of basis flips is the pure permutation v -> v[t ^ x] and stores
    neither array."""

    x: int
    a: np.ndarray | None = None
    b: np.ndarray | None = None


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit at fixed parameters as maximal runs of equal-X-mask gates."""

    n_qubits: int
    runs: tuple
    dtype: np.dtype  # float64 when every run is real

    def apply(self, vec: np.ndarray, invert: bool = False) -> np.ndarray:
        """U vec, or U^dag vec with invert, for a statevector or (2^n, k) batch.

        The adjoint of a run is conj(a) * v + (conj(b) * v)[t ^ x]."""
        idx = np.arange(1 << self.n_qubits)
        for r in reversed(self.runs) if invert else self.runs:
            perm = idx ^ r.x
            if r.a is None:
                vec = np.take(vec, perm, axis=0)
                continue
            a, b = (r.a, r.b) if vec.ndim == 1 else (r.a[:, None], r.b[:, None])
            if invert:
                vec = a.conj() * vec + np.take(b.conj() * vec, perm, axis=0)
            else:
                vec = a * vec + b * np.take(vec, perm, axis=0)
        return vec


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


def compile_circuit(circuit: Circuit, params=()) -> CompiledCircuit:
    """The circuit at fixed parameters, compiled once into gate runs.

    Gates compose inside a run: a gate (a2, b2) after (A, B) gives
    A' = a2 A + b2 B[t ^ x] and B' = a2 B + b2 A[t ^ x].  Consecutive basis
    flips merge into one permutation.  A run is stored as float64 when its
    arrays are real, which holds for the real-rotation layered ansatz."""
    _check_params(circuit, params)
    idx = np.arange(1 << circuit.n_qubits)
    runs: list = []  # [x, A, B]; A is None for a flip run
    for g in circuit.gates:
        x, a, b = _gate_form(g, params)
        last = runs[-1] if runs else None
        if b is None:
            if last is not None and last[1] is None:
                last[0] ^= x
            else:
                runs.append([x, None, None])
        elif last is not None and last[1] is not None and last[0] == x:
            big_a, big_b = last[1], last[2]
            last[1] = a * big_a + b * big_b[idx ^ x]
            last[2] = a * big_b + b * big_a[idx ^ x]
        else:
            runs.append([x, np.full(len(idx), a, dtype=complex), b])
    compiled = []
    for x, a, b in runs:
        if a is not None and not (a.imag.any() or b.imag.any()):
            a, b = a.real.copy(), b.real.copy()
        compiled.append(GateRun(x, a, b))
    dtype = np.result_type(float, *(r.a for r in compiled if r.a is not None))
    return CompiledCircuit(circuit.n_qubits, tuple(compiled), dtype)


# columns per batch in transformed_columns: bounds the working set at
# 2^n x 256 complex doubles per temporary, 16 MB at the 12-qubit dense limit
_COLUMN_BLOCK = 256


def transformed_columns(h: PauliSum, compiled: CompiledCircuit, indices) -> np.ndarray:
    """Columns of H' = U^dag H U at the given basis indices, as a (2^n, k) matrix.

    Entry (j, m) equals <j|U^dag H U|indices[m]>.  The basis columns go
    through the compiled circuit as one batch, then the grouped H, then the
    inverse circuit; every step is elementwise per column, so a column comes
    out bit for bit the same whatever batch it rides in.  The result is real
    when the compiled circuit and the grouped H are."""
    n = compiled.n_qubits
    indices = np.asarray(indices, dtype=np.int64)
    dtype = np.result_type(compiled.dtype, h.grouped.phases)
    out = np.empty((1 << n, len(indices)), dtype=dtype)
    for start in range(0, len(indices), _COLUMN_BLOCK):
        block = indices[start:start + _COLUMN_BLOCK]
        basis = np.zeros((1 << n, len(block)))
        basis[block, np.arange(len(block))] = 1.0
        state = compiled.apply(basis)
        out[:, start:start + len(block)] = compiled.apply(apply_pauli_sum(h, state), invert=True)
    return out

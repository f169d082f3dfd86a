"""Dense statevector simulation of Pauli-exponential circuits.

A PauliRotation gate realizes exp(-i * angle/2 * W) for a Pauli word W, applied
through the identity exp(-i a/2 W) = cos(a/2) I - i sin(a/2) W, so each gate
costs one vectorized Pauli action.  Parametric gates carry a slot index into
the parameter vector and a scale: effective angle = scale * params[slot].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import PauliSum, PauliWord, apply_pauli_sum, apply_word


class SimulatorError(ValueError):
    pass


@dataclass
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray  # length 2^n, or a (2^n, k) batch of column states

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy())


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


@dataclass
class Circuit:
    n_qubits: int
    gates: list = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            w = getattr(g, "word", None)
            if w is not None and w.n_qubits != self.n_qubits:
                raise SimulatorError("gate word size mismatch")

    @property
    def n_slots(self) -> int:
        slots = [g.slot for g in self.gates if isinstance(g, PauliRotation) and g.slot is not None]
        return max(slots) + 1 if slots else 0


def prepare_basis_state(n_qubits: int, index: int) -> Statevector:
    dim = 1 << n_qubits
    if not (0 <= index < dim):
        raise SimulatorError(f"basis index {index} out of range for {n_qubits} qubits")
    amp = np.zeros(dim, dtype=complex)
    amp[index] = 1.0
    return Statevector(n_qubits, amp)


def _gate_angle(g: PauliRotation, params) -> float:
    if g.slot is None:
        return g.angle
    return g.scale * float(params[g.slot])


def apply_gates(vec: np.ndarray, n_qubits: int, gates, params, invert: bool = False):
    """The gates applied in order to a statevector or (2^n, k) batch; with
    invert, their inverses in reverse order (the adjoint of the sequence)."""
    seq = reversed(gates) if invert else gates
    for g in seq:
        if isinstance(g, PauliRotation):
            a = _gate_angle(g, params)
            if invert:
                a = -a
            vec = np.cos(0.5 * a) * vec - 1j * np.sin(0.5 * a) * apply_word(g.word, vec)
        elif isinstance(g, PauliApply):
            vec = apply_word(g.word, vec)
        elif isinstance(g, BasisFlip):
            vec = apply_word(PauliWord(n_qubits, 1 << g.qubit, 0), vec)
        else:
            raise SimulatorError(f"unknown gate {g!r}")
    return vec


def apply_circuit(state: Statevector, circuit: Circuit, params=()) -> Statevector:
    if state.n_qubits != circuit.n_qubits:
        raise SimulatorError("state / circuit dimension mismatch")
    if circuit.n_slots > len(params):
        raise SimulatorError(f"need {circuit.n_slots} parameters, got {len(params)}")
    vec = apply_gates(state.amplitudes.astype(complex), circuit.n_qubits, circuit.gates, params)
    return Statevector(state.n_qubits, vec)


def expectation(state: Statevector, h: PauliSum) -> float:
    """<psi|H|psi> for Hermitian H."""
    if not h.is_hermitian():
        raise SimulatorError("non-Hermitian operator in expectation")
    val = np.vdot(state.amplitudes, apply_pauli_sum(h, state.amplitudes))
    return float(val.real)


def amplitude_vector(state: Statevector, circuit: Circuit, params=()) -> np.ndarray:
    """Entry j equals <j|U^dag|state>: the state resolved in the circuit basis."""
    if state.n_qubits != circuit.n_qubits:
        raise SimulatorError("state / circuit dimension mismatch")
    return apply_gates(
        state.amplitudes.astype(complex), circuit.n_qubits, circuit.gates, params, invert=True
    )


# columns per batch in transformed_columns: bounds the working set at
# 2^n x 256 complex doubles per temporary, 16 MB at the 12-qubit dense limit
_COLUMN_BLOCK = 256


def transformed_columns(h: PauliSum, circuit: Circuit, params, indices) -> np.ndarray:
    """Columns of H' = U^dag H U at the given basis indices, as a (2^n, k) matrix.

    Entry (j, m) equals <j|U^dag H U|indices[m]>.  The basis columns go
    through the circuit as one batch, then H, then the inverse circuit; every
    step is elementwise per column, so a column comes out bit for bit the
    same whatever batch it rides in."""
    n = circuit.n_qubits
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((1 << n, len(indices)), dtype=complex)
    for start in range(0, len(indices), _COLUMN_BLOCK):
        block = indices[start:start + _COLUMN_BLOCK]
        basis = np.zeros((1 << n, len(block)), dtype=complex)
        basis[block, np.arange(len(block))] = 1.0
        state = apply_circuit(Statevector(n, basis), circuit, params)
        w = Statevector(n, apply_pauli_sum(h, state.amplitudes))
        out[:, start:start + len(block)] = amplitude_vector(w, circuit, params)
    return out

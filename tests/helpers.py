"""Conveniences that only the tests use, kept out of the package.

`basis_state` is the computational basis state |i> as a complex array.
`PauliWord` is the package's word plus a label constructor.  It compares
and hashes like the package's word with the same masks, so words built here
mix freely with words the package builds.  The NSI
functions compute one indicator each from the package's eigenvalues and
eigenvector rows, where `nsi.nsi_report` computes them together.
`layered_walkers` is a Hubbard model with a layered circuit at random
angles and its walker sector.
`apply_gates` applies a circuit gate by gate over all 2^n indices, the
reference that the package's compiled runs are checked against.
`compose` composes one run of a circuit layout gate by gate, and
`compile_runs` compiles a layout run by run with it: the reference that the
package's lockstep compile is checked against bit for bit.
`trajectory_csv` writes a trajectory through `csv.writer`, the reference
for the package's trajectory writer.
"""

import csv
import io

import numpy as np

from qcfciqmc import exactdiag, fciqmc, nsi, operators, simulator, vqa


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    vec = np.zeros(1 << n_qubits, dtype=complex)
    vec[index] = 1.0
    return vec


class PauliWord(operators.PauliWord):
    @classmethod
    def from_label(cls, label: str) -> "PauliWord":
        """Build from a string like 'XIZY'; character q acts on qubit q."""
        x = z = 0
        for q, ch in enumerate(label):
            if ch in ("X", "Y"):
                x |= 1 << q
            if ch in ("Z", "Y"):
                z |= 1 << q
            if ch not in "IXYZ":
                raise operators.OperatorError(f"bad Pauli letter {ch!r}")
        return cls(len(label), x, z)

    def __eq__(self, other):
        if not isinstance(other, operators.PauliWord):
            return NotImplemented
        return (self.n_qubits, self.x_mask, self.z_mask) == (
            other.n_qubits, other.x_mask, other.z_mask)

    __hash__ = operators.PauliWord.__hash__


def nsi_thermal(h, beta: float) -> float:
    _, evals, _ = nsi._spectra(h, beta)
    return nsi._thermal(evals, beta)


def nsi_initial(h, phi0: int, beta: float) -> float:
    _, evals, rows = nsi._spectra(h, beta, phi0)
    return nsi._initial(evals, rows, beta)


def layered_walkers(shape, layers: int, seed: int):
    """(h, circuit, params, walkers) for open Hubbard at U/t = 4 and a
    layered ansatz at angles 0.1 N(0, 1); walkers is the half-filling sector
    XOR the circuit's leading flips, sorted, the sector the walkers live in."""
    spec = operators.HubbardSpec(shape, t=1.0, u=4.0)
    h = operators.jordan_wigner(operators.build_hubbard(spec))
    sector = exactdiag.number_sector_indices(spec.n_qubits, n_up=(spec.n_sites + 1) // 2,
                                             n_dn=spec.n_sites // 2)
    ref = vqa.lowest_diagonal_reference(h, sector)
    circuit = vqa.layered_ansatz(vqa.hubbard_hv_generator_groups(spec), layers, ref,
                                 spec.n_qubits)
    params = 0.1 * np.random.default_rng(seed).standard_normal(circuit.n_slots)
    return h, circuit, params, np.sort(sector ^ ref)


def apply_gates(vec: np.ndarray, n_qubits: int, gates, params, invert: bool = False):
    """The gates applied one by one to a (2^n,) state or (2^n, k) batch,
    exp(-i a/2 W) as cos(a/2) v - i sin(a/2) W v; with invert, their
    inverses in reverse order (the adjoint of the sequence)."""
    seq = reversed(gates) if invert else gates
    for g in seq:
        if isinstance(g, simulator.PauliRotation):
            a = g.angle if g.slot is None else g.scale * float(params[g.slot])
            if invert:
                a = -a
            vec = np.cos(0.5 * a) * vec - 1j * np.sin(0.5 * a) * operators.apply_word(g.word, vec)
        elif isinstance(g, simulator.PauliApply):
            vec = operators.apply_word(g.word, vec)
        elif isinstance(g, simulator.BasisFlip):
            vec = operators.apply_word(operators.PauliWord(n_qubits, 1 << g.qubit, 0), vec)
        else:
            raise simulator.SimulatorError(f"unknown gate {g!r}")
    return vec


def compose(run: simulator.RunLayout, params) -> np.ndarray:
    """[A, B] over a run's closed set, as a (2, 2, h) array, composed gate by
    gate in circuit order.  A gate (a2, b2) after (A, B) gives
    A' = a2 A + b2 B[t ^ x] and B' = a2 B + b2 A[t ^ x]: one product with
    the (B, A) swap, read with its rows swapped."""
    ab = None
    for g, p in zip(run.gates, run.phases):
        if isinstance(g, simulator.PauliRotation):
            angle = g.angle if g.slot is None else g.scale * float(params[g.slot])
            half = 0.5 * angle
            ga, gb = np.cos(half), -1j * np.sin(half) * p
        else:
            ga, gb = 0.0, p
        if ab is None:
            ab = np.empty((2,) + p.shape, dtype=complex)
            ab[0], ab[1] = ga, gb
        else:
            ab = ga * ab + gb * ab[::-1, ::-1]
    return ab


def compile_runs(layout: simulator.CircuitLayout, params) -> list:
    """(a, b) per run, each (d + 1,) with the sentinel's zero: every run
    composed alone, kept real when its arrays are, checked for leaks in
    circuit order and read at its labels."""
    d = len(layout.basis)
    out = []
    for r in layout.runs:
        ab = compose(r, params).reshape(2, -1)
        if not ab.imag.any():
            ab = ab.real
        if len(r.edge):
            simulator._check_conserved(r.name, ab[1, r.edge], np.abs(ab).max())
        at = np.zeros((2, d + 1), dtype=ab.dtype)
        at[:, :d] = ab[:, r.labels_at]
        out.append((at[0], at[1]))
    return out


def trajectory_csv(traj) -> str:
    """The trajectory's CSV as `csv.writer` writes it: per record the step,
    tau and shift as their repr, the counts, and e_mixed as its repr or
    empty where it is None."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fciqmc.CSV_HEADER)
    for r in traj.records:
        writer.writerow([r.step, repr(r.tau), repr(r.shift), r.n_walkers, r.n_occupied,
                         "" if r.e_mixed is None else repr(r.e_mixed)])
    return buf.getvalue()

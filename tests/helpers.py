"""Conveniences that only the tests use, kept out of the package.

`basis_state` is the computational basis state |i> as a complex array.
`PauliWord` is the package's word plus a label constructor.  It compares
and hashes like the package's word with the same masks, so words built here
mix freely with words the package builds.  The NSI
functions compute one index each from the package's spectra, where
`nsi.nsi_report` computes them together.
"""

import numpy as np

from qcfciqmc import nsi, operators


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
    _, spec_h, spec_t = nsi._spectra(h, beta)
    return nsi._thermal(spec_h, spec_t, beta)


def nsi_initial(h, phi0: int, beta: float) -> float:
    _, spec_h, spec_t = nsi._spectra(h, beta)
    return nsi._initial(spec_h, spec_t, phi0, beta)

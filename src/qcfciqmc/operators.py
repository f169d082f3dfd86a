"""Fermionic and Pauli operator algebra.

Pauli words are stored as a pair of bit masks (x_mask, z_mask): qubit q carries
an X factor iff bit q of x_mask is set, a Z factor iff bit q of z_mask is set,
and a Y factor iff both are set.  Qubit 0 is the least significant bit of a
basis index throughout the package.

Fermionic operators use the mode convention: spin-orbital index = 2*site + spin
with spin up = 0.  Jordan-Wigner places the Z parity string on modes below the
acted-on mode: a^dag_p = (X_p - i Y_p)/2 (x) Z_{p-1} ... Z_0.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

PRUNE_TOL = 1e-12
DENSE_LIMIT = 12  # qubits; 4096^2 complex doubles is the desk ceiling of every dense path

_PAULI_LABELS = "IXYZ"


class OperatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Pauli algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliWord:
    """A tensor product of single-qubit Paulis, bit-mask encoded."""

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise OperatorError("mask exceeds qubit count")

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @classmethod
    def from_label(cls, label: str) -> "PauliWord":
        """Build from a string like 'XIZY'; character q acts on qubit q."""
        x = z = 0
        for q, ch in enumerate(label):
            if ch in ("X", "Y"):
                x |= 1 << q
            if ch in ("Z", "Y"):
                z |= 1 << q
            if ch not in _PAULI_LABELS:
                raise OperatorError(f"bad Pauli letter {ch!r}")
        return cls(len(label), x, z)

    def label(self) -> str:
        out = []
        for q in range(self.n_qubits):
            xb = (self.x_mask >> q) & 1
            zb = (self.z_mask >> q) & 1
            out.append(_PAULI_LABELS[2 if xb and zb else xb + 3 * zb])
        return "".join(out)

    def __repr__(self):
        return f"PauliWord({self.label()!r})"


def pauli_product(a: PauliWord, b: PauliWord):
    """Product of two Pauli words: returns (phase, word) with phase in {1,-1,i,-i}.

    Uses the symplectic form with the convention P(x,z) = i^{|x&z|} X^x Z^z,
    which makes P exactly the tensor product of standard Pauli matrices.
    """
    if a.n_qubits != b.n_qubits:
        raise OperatorError("qubit count mismatch")
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    # i-exponent: |xa&za| + |xb&zb| - |x&z| + 2|za&xb|  (mod 4)
    k = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    ) % 4
    return (1j) ** k, PauliWord(a.n_qubits, x, z)


def _word_action(w: PauliWord):
    """(targets, phases) over all basis indices: W|i> = phases[i] |targets[i]>."""
    idx = np.arange(1 << w.n_qubits)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & w.z_mask) & 1)
    return idx ^ w.x_mask, ((1j) ** w.y_count) * signs


def apply_word(w: PauliWord, vec: np.ndarray) -> np.ndarray:
    """Vectorized W|psi> for a statevector of length 2^n, or column-wise for a
    (2^n, m) batch of statevectors."""
    if vec.shape[0] != 1 << w.n_qubits:
        raise OperatorError("dimension mismatch")
    targets, phases = _word_action(w)
    if vec.ndim == 2:
        phases = phases[:, None]
    out = np.empty_like(vec, dtype=complex)
    out[targets] = phases * vec
    return out


@dataclass(frozen=True)
class PauliTerm:
    coefficient: complex
    word: PauliWord

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise OperatorError("non-finite coefficient")


@dataclass
class PauliSum:
    """Weighted sum of Pauli words, H = sum_k h_k P_k."""

    terms: list = field(default_factory=list)

    @property
    def n_qubits(self) -> int:
        if not self.terms:
            raise OperatorError("empty PauliSum has no qubit count")
        return self.terms[0].word.n_qubits

    def simplify(self, prune_tol: float = PRUNE_TOL) -> "PauliSum":
        acc: dict = {}
        order: list = []
        for t in self.terms:
            key = (t.word.x_mask, t.word.z_mask)
            if key not in acc:
                acc[key] = 0.0
                order.append((key, t.word.n_qubits))
            acc[key] += t.coefficient
        out = []
        for key, nq in order:
            c = complex(acc[key])
            if abs(c) <= prune_tol:
                continue
            coeff = c.real if abs(c.imag) <= prune_tol else c
            out.append(PauliTerm(coeff, PauliWord(nq, key[0], key[1])))
        return PauliSum(out)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        # Pauli words are Hermitian, so Hermiticity = real coefficients.
        return all(abs(np.imag(t.coefficient)) <= tol for t in self.simplify().terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(list(self.terms) + list(other.terms))

    def scaled(self, c) -> "PauliSum":
        return PauliSum([PauliTerm(c * t.coefficient, t.word) for t in self.terms])

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        out = []
        for ta in self.terms:
            for tb in other.terms:
                phase, w = pauli_product(ta.word, tb.word)
                out.append(PauliTerm(phase * ta.coefficient * tb.coefficient, w))
        return PauliSum(out).simplify()


def apply_pauli_sum(h: PauliSum, vec: np.ndarray) -> np.ndarray:
    """H|psi> for a dense statevector (or batch), one vectorized pass per term."""
    out = np.zeros(vec.shape, dtype=complex)
    for t in h.terms:
        out += t.coefficient * apply_word(t.word, vec)
    return out


def diagonal_entry(h: PauliSum, index: int) -> float:
    """<i|H|i> without touching a statevector; only x_mask = 0 words contribute."""
    val = 0.0
    for t in h.terms:
        if t.word.x_mask == 0:
            val += np.real(t.coefficient) * (-1) ** (index & t.word.z_mask).bit_count()
    return float(val)


def to_dense(h: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a PauliSum.

    Each term scatters its word's (target index, phase) pairs into the matrix,
    one O(2^n) pass per term.  The word action is the one apply_word uses, so
    the dense and statevector constructions of an operator agree bit for bit.
    """
    n = h.n_qubits
    if n > DENSE_LIMIT:
        raise OperatorError(f"{n} qubits exceeds dense limit {DENSE_LIMIT}")
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for t in h.terms:
        targets, phases = _word_action(t.word)
        mat[targets, cols] += t.coefficient * phases
    return mat


# ---------------------------------------------------------------------------
# Fermions and Jordan-Wigner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FermionTerm:
    """coefficient * product of ladder operators, ops = ((mode, create?), ...).

    An empty ops tuple denotes a multiple of the identity (core energy)."""

    coefficient: float
    ops: tuple

    def adjoint(self) -> "FermionTerm":
        rev = tuple((m, not c) for (m, c) in reversed(self.ops))
        return FermionTerm(self.coefficient, rev)


@dataclass
class FermionSum:
    terms: list
    n_modes: int

    def __post_init__(self):
        for t in self.terms:
            for (m, _c) in t.ops:
                if not (0 <= m < self.n_modes):
                    raise OperatorError(f"mode {m} out of range")

    def adjoint(self) -> "FermionSum":
        return FermionSum([t.adjoint() for t in self.terms], self.n_modes)


def _ladder_pauli(mode: int, create: bool, n_qubits: int) -> PauliSum:
    # a_p = (X_p + iY_p)/2 (x) Z-string below; a^dag flips the Y sign
    zstr = (1 << mode) - 1
    x = 1 << mode
    sy = -0.5j if create else 0.5j
    return PauliSum(
        [
            PauliTerm(0.5, PauliWord(n_qubits, x, zstr)),
            PauliTerm(sy, PauliWord(n_qubits, x, zstr | x)),
        ]
    )


def jordan_wigner(f: FermionSum) -> PauliSum:
    """Map a FermionSum to qubits; output is simplified."""
    n = f.n_modes
    ident = PauliWord(n, 0, 0)
    total: list = []
    for term in f.terms:
        prod = PauliSum([PauliTerm(1.0, ident)])
        for (mode, create) in term.ops:
            prod = prod @ _ladder_pauli(mode, create, n)
        total.extend(prod.scaled(term.coefficient).terms)
    return PauliSum(total).simplify()


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HubbardSpec:
    """Rectangular Hubbard lattice; n_qubits = 2 * rows * cols."""

    shape: tuple
    t: float
    u: float
    periodic: bool = False

    @property
    def n_sites(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_sites

    def edges(self) -> list:
        """Nearest-neighbour site pairs, deduplicated, in sorted order."""
        rows, cols = self.shape
        seen = set()
        for r in range(rows):
            for c in range(cols):
                s = r * cols + c
                if c + 1 < cols:
                    seen.add((s, s + 1))
                elif self.periodic and cols > 2:
                    seen.add((r * cols, s))
                if r + 1 < rows:
                    seen.add((s, s + cols))
                elif self.periodic and rows > 2:
                    seen.add((c, s))
        return sorted((min(a, b), max(a, b)) for (a, b) in seen)


def build_hubbard(spec: HubbardSpec) -> FermionSum:
    """H = -t sum_<ij>,sigma (a^dag_i a_j + h.c.) + U sum_i n_up n_dn."""
    if spec.n_sites < 1:
        raise OperatorError("zero-site lattice")
    terms = []
    for (i, j) in spec.edges():
        for sp in (0, 1):
            mi, mj = 2 * i + sp, 2 * j + sp
            terms.append(FermionTerm(-spec.t, ((mi, True), (mj, False))))
            terms.append(FermionTerm(-spec.t, ((mj, True), (mi, False))))
    for s in range(spec.n_sites):
        up, dn = 2 * s, 2 * s + 1
        terms.append(
            FermionTerm(spec.u, ((up, True), (up, False), (dn, True), (dn, False)))
        )
    return FermionSum(terms, spec.n_qubits)


# ---------------------------------------------------------------------------
# FCIDUMP ingestion
# ---------------------------------------------------------------------------

@dataclass
class FcidumpData:
    """Molecular integrals in Molpro FCIDUMP layout, 1-based orbital indices.

    two_body holds chemist-notation (pq|rs) values under a canonical key; use
    get_eri for symmetry-expanded lookup."""

    n_orbitals: int
    n_electrons: int
    ms2: int
    core_energy: float = 0.0
    one_body: dict = field(default_factory=dict)
    two_body: dict = field(default_factory=dict)

    @staticmethod
    def _key1(p, q):
        return (p, q) if p >= q else (q, p)

    @staticmethod
    def _key2(p, q, r, s):
        pq = (p, q) if p >= q else (q, p)
        rs = (r, s) if r >= s else (s, r)
        return pq + rs if pq >= rs else rs + pq

    def set_h1(self, p, q, v):
        self.one_body[self._key1(p, q)] = v

    def set_eri(self, p, q, r, s, v):
        self.two_body[self._key2(p, q, r, s)] = v

    def get_h1(self, p, q) -> float:
        return self.one_body.get(self._key1(p, q), 0.0)

    def get_eri(self, p, q, r, s) -> float:
        return self.two_body.get(self._key2(p, q, r, s), 0.0)


class FcidumpError(ValueError):
    pass


_KNOWN_KEYS = {"NORB", "NELEC", "MS2", "ORBSYM", "ISYM", "IUHF"}


def parse_fcidump(stream) -> FcidumpData:
    """Parse a Molpro-convention FCIDUMP from bytes or text.

    Header: `&FCI NORB=...,NELEC=...,MS2=...` terminated by `&END` or `/`.
    Body lines: `value i j k l`; all-zero indices carry the core energy and
    k = l = 0 marks a one-body integral.  Fortran D exponents are accepted.
    """
    if isinstance(stream, bytes):
        text = stream.decode("ascii")
    else:
        text = stream
    lines = text.splitlines()
    header_tokens = []
    body_start = None
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not header_tokens:
            if not stripped:
                continue
            if not stripped.upper().startswith("&FCI"):
                raise FcidumpError(f"line {ln}: expected &FCI header")
            stripped = stripped[4:]
        done = False
        for stop in ("&END", "/"):
            pos = stripped.upper().find(stop)
            if pos >= 0:
                stripped = stripped[:pos]
                done = True
                break
        header_tokens.append(stripped)
        if done:
            body_start = ln
            break
    if body_start is None:
        raise FcidumpError("header never terminated by &END or /")

    fields = {}
    blob = " ".join(header_tokens)
    pat = r"([A-Za-z][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=[A-Za-z][A-Za-z0-9_]*\s*=|$)"
    for m in re.finditer(pat, blob):
        key = m.group(1).upper()
        val = m.group(2).replace(",", " ").split()
        if key not in _KNOWN_KEYS:
            warnings.warn(f"FCIDUMP header key {key} ignored")
            continue
        fields[key] = val
    if not fields:
        raise FcidumpError("no recognizable keys in FCIDUMP header")

    def _int_field(name):
        if name not in fields or not fields[name]:
            raise FcidumpError(f"header missing {name}")
        try:
            return int(fields[name][0])
        except ValueError as exc:
            raise FcidumpError(f"header {name}: {exc}") from exc

    data = FcidumpData(
        n_orbitals=_int_field("NORB"),
        n_electrons=_int_field("NELEC"),
        ms2=_int_field("MS2") if "MS2" in fields else 0,
    )
    if data.n_orbitals < 1:
        raise FcidumpError("NORB must be positive")

    for ln in range(body_start, len(lines)):
        raw = lines[ln].strip()
        if not raw:
            continue
        toks = raw.split()
        if len(toks) != 5:
            raise FcidumpError(f"line {ln + 1}: expected `value i j k l`")
        try:
            v = float(toks[0].upper().replace("D", "E"))
            p, q, r, s = (int(x) for x in toks[1:])
        except ValueError as exc:
            raise FcidumpError(f"line {ln + 1}: {exc}") from exc
        for idx in (p, q, r, s):
            if idx < 0 or idx > data.n_orbitals:
                raise FcidumpError(f"line {ln + 1}: orbital index {idx} out of range")
        if p == q == r == s == 0:
            data.core_energy = v
        elif r == 0 and s == 0:
            if p == 0 or q == 0:
                raise FcidumpError(f"line {ln + 1}: bad one-body indices")
            data.set_h1(p, q, v)
        else:
            if 0 in (p, q, r, s):
                raise FcidumpError(f"line {ln + 1}: bad two-body indices")
            data.set_eri(p, q, r, s, v)
    return data


def serialize_fcidump(data: FcidumpData) -> str:
    out = [
        f"&FCI NORB={data.n_orbitals},NELEC={data.n_electrons},MS2={data.ms2},",
        "&END",
    ]
    for key in sorted(data.two_body):
        p, q, r, s = key
        out.append(f"{data.two_body[key]:23.16E} {p:4d} {q:4d} {r:4d} {s:4d}")
    for key in sorted(data.one_body):
        p, q = key
        out.append(f"{data.one_body[key]:23.16E} {p:4d} {q:4d} {0:4d} {0:4d}")
    out.append(f"{data.core_energy:23.16E} {0:4d} {0:4d} {0:4d} {0:4d}")
    return "\n".join(out) + "\n"


def build_molecular(data: FcidumpData, frozen_orbitals=()) -> FermionSum:
    """Second-quantized Hamiltonian from integrals, optionally frozen-core.

    Frozen orbitals must be doubly occupied; their mean-field effect folds into
    the core energy and effective one-body integrals.  Active orbitals are
    re-indexed in ascending order and mapped to modes 2*orbital + spin.
    """
    frozen = sorted(set(int(x) for x in frozen_orbitals))
    for i in frozen:
        if not (1 <= i <= data.n_orbitals):
            raise OperatorError(f"frozen orbital {i} out of range")
    if 2 * len(frozen) > data.n_electrons:
        raise OperatorError("frozen set exceeds electron count")
    active = [p for p in range(1, data.n_orbitals + 1) if p not in frozen]

    core = data.core_energy
    for i in frozen:
        core += 2.0 * data.get_h1(i, i)
        for j in frozen:
            core += 2.0 * data.get_eri(i, i, j, j) - data.get_eri(i, j, j, i)

    def h_eff(p, q):
        v = data.get_h1(p, q)
        for i in frozen:
            v += 2.0 * data.get_eri(p, q, i, i) - data.get_eri(p, i, i, q)
        return v

    pos = {orb: k for k, orb in enumerate(active)}
    n_modes = 2 * len(active)
    terms = [FermionTerm(core, ())]
    for p in active:
        for q in active:
            v = h_eff(p, q)
            if v == 0.0:
                continue
            for sp in (0, 1):
                terms.append(
                    FermionTerm(v, ((2 * pos[p] + sp, True), (2 * pos[q] + sp, False)))
                )
    for p in active:
        for q in active:
            for r in active:
                for s in active:
                    v = data.get_eri(p, q, r, s)
                    if v == 0.0:
                        continue
                    for sp in (0, 1):
                        for tp in (0, 1):
                            terms.append(
                                FermionTerm(
                                    0.5 * v,
                                    (
                                        (2 * pos[p] + sp, True),
                                        (2 * pos[r] + tp, True),
                                        (2 * pos[s] + tp, False),
                                        (2 * pos[q] + sp, False),
                                    ),
                                )
                            )
    return FermionSum(terms, n_modes)

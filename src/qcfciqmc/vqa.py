"""Ansatz construction and variational optimization of the walker-basis circuit.

Two ansatz families are provided.  layered_ansatz repeats Trotterized
exponentials of anti-Hermitian fermionic generator groups, one shared
parameter per layer and group; every gate is a real rotation, so the
transformed Hamiltonian stays real, as the NSI diagnostics require.  For the
Hubbard model the groups follow the Hamiltonian's structure
(hubbard_hv_generator_groups).  adapt_vqe grows a circuit greedily from a
generator pool by gradient magnitude.

The optimizer is plain gradient descent with Armijo backtracking: deterministic
and dependency-free, adequate at desk scale.  Energies and gradients run on
the simulator's compiled circuit over a basis: the full 2^n space by default,
or the walker sector the CLI passes, which the real particle-conserving
ansatze keep closed.  `vqe_minimize` builds the circuit's layout once and
compiles it once per parameter vector tried; the accepted trial's state
feeds the next gradient.  The gradient is the adjoint method (Jones &
Gacon, arXiv:2009.02823) stepped back one compiled run at a time.  A run's
words commute, so the derivative of a run by a gate's angle a is
-(i/2) W_g times the run, and dE/da = Im<lambda|W_g|phi> at the run's
output, with phi the state there and lambda H psi pulled back to the same
point.  One product of the run's phase rows with conj(lambda) * phi[t ^ x]
gives that term for every parametric gate of the run; it is exact like the
parameter-shift rule.  Circuits are immutable: `adapt_vqe` grows its circuit
by building a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    FermionSum,
    FermionTerm,
    HubbardSpec,
    PauliSum,
    diagonal_entry,
    jordan_wigner,
)
from .simulator import (
    BasisFlip,
    Circuit,
    CompiledCircuit,
    PauliRotation,
    circuit_layout,
    compile_circuit,
)


class VqaError(ValueError):
    pass


@dataclass
class OptimizerConfig:
    gtol: float = 1e-6
    max_iterations: int = 2000
    armijo: float = 1e-4  # sufficient-decrease factor
    shrink: float = 0.5
    initial_step: float = 1.0
    max_backtracks: int = 60

    def __post_init__(self):  # each `not` test also catches NaN
        if not self.gtol >= 0:
            raise VqaError("gtol must be non-negative")
        if self.max_iterations < 0:
            raise VqaError("max_iterations must be non-negative")
        if not 0 < self.armijo < 1:
            raise VqaError("armijo must lie in (0, 1)")
        if not 0 < self.shrink < 1:
            raise VqaError("shrink must lie in (0, 1)")
        if not 0 < self.initial_step < np.inf:
            raise VqaError("initial_step must be positive and finite")
        if self.max_backtracks < 1:
            raise VqaError("max_backtracks must be at least 1")


@dataclass
class VqeResult:
    circuit: Circuit
    params: np.ndarray
    energy: float
    history: list = field(default_factory=list)  # (iteration, energy)
    converged: bool = True
    message: str = ""


@dataclass
class AnsatzSpec:
    """What circuit family to optimize: layered exponentials or greedy growth.

    kind "hv" layers the real generator groups built from the model; kind
    "adapt" grows from the singles-doubles pool."""

    kind: str = "hv"  # "hv" | "adapt"
    layers: int = 3
    max_operators: int = 8
    gradient_tol: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("hv", "adapt"):
            raise VqaError(f"kind must be hv or adapt, got {self.kind!r}")
        if self.layers < 0 or self.max_operators < 0:
            raise VqaError("layers and max_operators must be non-negative")


# ---------------------------------------------------------------------------
# reference determinants and circuit scaffolding
# ---------------------------------------------------------------------------

def preparation_gates(reference: int, n_qubits: int) -> tuple:
    return tuple(BasisFlip(q) for q in range(n_qubits) if (reference >> q) & 1)


def lowest_diagonal_reference(h: PauliSum, candidates) -> int:
    """Candidate basis index with the smallest diagonal energy (ties: lowest index)."""
    best = None
    best_val = None
    for i in candidates:
        v = diagonal_entry(h, int(i))
        if (
            best is None
            or v < best_val - 1e-12
            or (abs(v - best_val) <= 1e-12 and int(i) < best)
        ):
            best, best_val = int(i), v
    if best is None:
        raise VqaError("empty candidate set for reference determinant")
    return best


def molecular_reference(n_modes: int, n_electrons: int, ms2: int = 0) -> int:
    """Aufbau occupation: fill lowest spatial orbitals, up spins first."""
    n_up = (n_electrons + ms2) // 2
    n_dn = n_electrons - n_up
    if n_dn < 0 or 2 * max(n_up, n_dn) > n_modes:
        raise VqaError("electron count incompatible with mode count")
    index = 0
    for k in range(n_up):
        index |= 1 << (2 * k)
    for k in range(n_dn):
        index |= 1 << (2 * k + 1)
    return index


# ---------------------------------------------------------------------------
# ansatz builders
# ---------------------------------------------------------------------------

def generator_gates(gen: PauliSum, slot: int) -> tuple:
    """Rotation gates realizing exp(theta G) for an anti-Hermitian generator.

    G expands as sum_k i gamma_k W_k with real gamma_k; each Trotter factor
    exp(i theta gamma_k W_k) is a PauliRotation with scale -2 gamma_k."""
    if any(abs(complex(t.coefficient).real) > 1e-12 for t in gen.terms):
        raise VqaError("generator is not anti-Hermitian (real Pauli coefficient)")
    return tuple(PauliRotation(t.word, slot=slot, scale=-2.0 * complex(t.coefficient).imag)
                 for t in gen.terms)


def layered_ansatz(generator_groups, layers: int, reference: int, n_qubits: int) -> Circuit:
    """Real-rotation layered ansatz: one shared slot per (layer, group).

    Generator groups are anti-Hermitian PauliSums (fermionic t-dagger-minus-t
    images), so every gate is a real orthogonal rotation and the transformed
    Hamiltonian stays real."""
    if not generator_groups:
        raise VqaError("empty generator group list")
    gates = list(preparation_gates(reference, n_qubits))
    n_groups = len(generator_groups)
    for layer in range(layers):
        for g, gen in enumerate(generator_groups):
            gates.extend(generator_gates(gen, layer * n_groups + g))
    return Circuit(n_qubits, gates)


def _antisymmetrized(terms, n_modes: int) -> PauliSum:
    fwd = [FermionTerm(c, ops) for (c, ops) in terms]
    back = [FermionTerm(-t.coefficient, t.adjoint().ops) for t in fwd]
    return jordan_wigner(FermionSum(fwd + back, n_modes))


def singles_doubles_pool(n_modes: int) -> list:
    """Anti-Hermitian excitation pool: spin-summed singles plus Sz-conserving doubles."""
    if n_modes % 2:
        raise VqaError("odd mode count")
    pool = []
    n_sites = n_modes // 2
    for p in range(n_sites):
        for q in range(p + 1, n_sites):
            terms = [
                (1.0, ((2 * q + sp, True), (2 * p + sp, False))) for sp in (0, 1)
            ]
            pool.append(_antisymmetrized(terms, n_modes))

    def sz(m):
        return 0.5 if m % 2 == 0 else -0.5

    pairs = [(a, b) for a in range(n_modes) for b in range(a + 1, n_modes)]
    for (p, q) in pairs:
        for (r, s) in pairs:
            if (p, q) >= (r, s):
                continue
            if {p, q} == {r, s}:
                continue
            if abs(sz(p) + sz(q) - sz(r) - sz(s)) > 1e-9:
                continue
            pool.append(_antisymmetrized(
                [(1.0, ((p, True), (q, True), (s, False), (r, False)))], n_modes))
    return [g for g in pool if g.terms]


def hubbard_hv_generator_groups(spec: HubbardSpec) -> list:
    """Hamiltonian-structured real generator groups for the layered ansatz.

    Per lattice direction: spin-summed hops, spin exchange, and on-site pair
    transfer across each edge.  All are anti-Hermitian combinations, so the
    resulting circuit is real orthogonal."""
    rows, cols = spec.shape
    horiz = [e for e in spec.edges() if e[0] // cols == e[1] // cols]
    vert = [e for e in spec.edges() if e[0] // cols != e[1] // cols]
    n = spec.n_qubits
    groups = []
    for edges in (horiz, vert):
        if not edges:
            continue
        hop = []
        exch = []
        pair = []
        for (i, j) in edges:
            for sp in (0, 1):
                hop.append((1.0, ((2 * j + sp, True), (2 * i + sp, False))))
            exch.append(
                (1.0, ((2 * j, True), (2 * i, False), (2 * i + 1, True), (2 * j + 1, False)))
            )
            pair.append(
                (1.0, ((2 * j, True), (2 * j + 1, True), (2 * i + 1, False), (2 * i, False)))
            )
        for terms in (hop, exch, pair):
            gen = _antisymmetrized(terms, n)
            if gen.terms:
                groups.append(gen)
    if not groups:
        raise VqaError("lattice has no edges; layered ansatz undefined")
    return groups


# ---------------------------------------------------------------------------
# energies and gradients
# ---------------------------------------------------------------------------

def _reference_state(compiled: CompiledCircuit) -> np.ndarray:
    """U|0> over the compiled circuit's positions, as a (d + 1, 1) column
    whose last entry is the zero sentinel."""
    d = len(compiled.basis)
    start = compiled.position[0]
    if start == d:
        raise VqaError("the basis does not hold the all-zeros state the circuit acts on")
    vec = np.zeros((d + 1, 1))
    vec[start] = 1.0
    return compiled.forward(vec)


def _energy(compiled: CompiledCircuit, h: PauliSum, psi: np.ndarray) -> float:
    """<psi|H|psi> for a padded psi over the compiled circuit's labels."""
    if not h.hermitian:
        raise VqaError("non-Hermitian operator in the energy")
    return float(np.vdot(psi, compiled.apply_sum(h, psi)).real)


def circuit_energy(circuit: Circuit, h: PauliSum, params, basis=None) -> float:
    """<0|U^dag H U|0>, computed over `basis` (all 2^n indices when None)."""
    compiled = compile_circuit(circuit, params, basis)
    return _energy(compiled, h, _reference_state(compiled))


def gradient(circuit: Circuit, h: PauliSum, params, basis=None) -> np.ndarray:
    """Adjoint-method gradient dE/dtheta (Jones & Gacon, arXiv:2009.02823),
    computed over `basis` (all 2^n indices when None)."""
    compiled = compile_circuit(circuit, params, basis)
    return _adjoint_gradient(compiled, h, _reference_state(compiled))


def _adjoint_gradient(compiled: CompiledCircuit, h: PauliSum, psi: np.ndarray) -> np.ndarray:
    """dE/dtheta given the padded psi = U|0> of `compiled`.

    Start from phi = psi and lambda = H psi, then step back one run at a
    time.  At a run's output, every parametric gate g of the run adds
    scale * Im<lambda|W_g|phi> to its slot: (W_g phi)[p] is the gate's phase
    at label p times phi at the partner position, and lambda lies in the
    basis, so the partner's sentinel zero drops what W_g moves out of it.
    Then the pair steps back through the run's inverse."""
    layout = compiled.layout
    d = len(layout.basis)
    grad = np.zeros(layout.n_slots)
    pair = np.concatenate([psi, compiled.apply_sum(h, psi)], axis=1)
    for run, r in zip(reversed(compiled.runs), reversed(layout.runs)):
        if len(r.slots):
            overlap = np.zeros(r.phases[0].size, dtype=complex)
            overlap[r.labels_at] = pair[:d, 1].conj() * pair[r.partner[:d], 0]
            d_angle = (r.phases.reshape(len(r.phases), -1) @ overlap).imag[r.slot_rows]
            grad += np.bincount(r.slots, weights=r.scales * d_angle, minlength=len(grad))
        pair = run.inverse(pair)
    return grad


def pool_gradients(compiled: CompiledCircuit, h: PauliSum, pool) -> np.ndarray:
    """dE/dtheta at theta = 0 for each pool generator appended to the
    compiled circuit: <psi|[H, G]|psi> = 2 Re<H psi|G psi> for psi = U|0>,
    with H and each generator acting through the compiled groups."""
    psi = _reference_state(compiled)
    hv = compiled.apply_sum(h, psi)
    out = np.zeros(len(pool))
    for k, gen in enumerate(pool):
        out[k] = 2.0 * float(np.real(np.vdot(hv, compiled.apply_sum(gen, psi))))
    return out


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def vqe_minimize(
    circuit: Circuit, h: PauliSum, init, config: OptimizerConfig | None = None,
    basis=None,
) -> VqeResult:
    """Gradient descent with Armijo backtracking on E(theta), over `basis`
    (all 2^n indices when None).

    The circuit's layout is built once, and the circuit is compiled once per
    parameter vector tried: the accepted trial's compiled runs and state
    feed the next gradient's reverse pass."""
    cfg = config or OptimizerConfig()
    params = np.array(init, dtype=float)
    if len(params) != circuit.n_slots:
        raise VqaError(f"need {circuit.n_slots} parameters, got {len(params)}")
    layout = circuit_layout(circuit, basis)

    def point(p):
        compiled = layout.compile(p)
        psi = _reference_state(compiled)
        return compiled, psi, _energy(compiled, h, psi)

    compiled, psi, energy = point(params)
    if not np.isfinite(energy):
        raise VqaError("non-finite energy at initial parameters")
    history = [(0, energy)]
    converged = False
    message = "max iterations reached"
    # warm-started backtracking: begin each search a notch above the last
    # accepted step so the line search adapts to the local curvature
    step0 = cfg.initial_step
    for it in range(1, cfg.max_iterations + 1):
        grad = _adjoint_gradient(compiled, h, psi)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < cfg.gtol:
            converged = True
            message = f"gradient norm {gnorm:.2e} below tolerance"
            break
        step = step0
        gsq = gnorm * gnorm
        accepted = False
        for _ in range(cfg.max_backtracks):
            trial = params - step * grad
            at_trial = point(trial)
            e_trial = at_trial[2]
            if not np.isfinite(e_trial):
                raise VqaError("non-finite energy during line search")
            if e_trial <= energy - cfg.armijo * step * gsq:
                params, (compiled, psi, energy) = trial, at_trial
                accepted = True
                break
            step *= cfg.shrink
        history.append((it, energy))
        if not accepted:
            message = "line search stalled"
            break
        # growth factor deliberately not 1/shrink: a reciprocal pair can lock
        # the search into an oscillating step that straddles the minimum
        step0 = min(cfg.initial_step * 8.0, step * 1.3)
    return VqeResult(circuit, params, energy, history, converged, message)


def adapt_vqe(
    h: PauliSum,
    pool,
    max_operators: int,
    reference: int,
    n_qubits: int,
    gradient_tol: float = 1e-3,
    config: OptimizerConfig | None = None,
    basis=None,
) -> VqeResult:
    """Greedy circuit growth: append the largest-gradient pool generator,
    re-optimize all parameters, repeat.  Outer energies are non-increasing.
    Everything runs over `basis` (all 2^n indices when None)."""
    if not pool:
        raise VqaError("empty generator pool")
    circuit = Circuit(n_qubits, preparation_gates(reference, n_qubits))
    params = np.zeros(0)
    energy = circuit_energy(circuit, h, params, basis)
    history = [(0, energy)]
    converged = True
    message = "max operators reached" if max_operators > 0 else "no operators requested"
    for k in range(max_operators):
        grads = pool_gradients(compile_circuit(circuit, params, basis), h, pool)
        pick = int(np.argmax(np.abs(grads)))
        if abs(grads[pick]) < gradient_tol:
            message = f"pool gradient {abs(grads[pick]):.2e} below tolerance"
            break
        slot = circuit.n_slots
        circuit = Circuit(n_qubits, circuit.gates + generator_gates(pool[pick], slot))
        params = np.append(params, 0.0)
        result = vqe_minimize(circuit, h, params, config, basis)
        params = result.params
        if result.energy > energy + 1e-9:
            converged = False
            message = "inner optimization failed to improve"
            break
        energy = result.energy
        history.append((k + 1, energy))
    return VqeResult(circuit, params, energy, history, converged, message)

"""Config-driven command line: ed / vqe / nsi / qmc / sweep.

Each subcommand reads one flat key = value config file (dotted sections,
`#` comments), applies flag overrides, runs the requested experiment, and
writes machine-readable records into the output directory.  Exit codes:
0 success, 2 config error, 3 model error, 4 numerical failure.
Each walker basis {U|i>} is resolved once, by `_walker_basis`, and every
dense matrix is its block of H' = U^dag H U over the walker sector, built by
`nsi.transformed_dense` under one dimension limit (the identity basis is the
empty circuit).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exactdiag import diagonalize, number_sector_indices
from .fciqmc import (
    MIN_SAMPLES,
    FciqmcError,
    RunConfig,
    run,
    statistics,
    summary_record,
    trajectory_to_csv,
)
from .matelem import ElementSource, ExactBackend, MatelemError, SampledBackend
from .nsi import NsiError, check_beta, nsi_report, transformed_dense
from .operators import (
    DENSE_DIM_LIMIT,
    FcidumpError,
    HubbardSpec,
    OperatorError,
    PauliSum,
    PauliWord,
    build_hubbard,
    build_molecular,
    diagonal_entry,
    jordan_wigner,
    parse_fcidump,
)
from .simulator import (BasisFlip, Circuit, LeakError, PauliApply, PauliRotation,
                        SimulatorError)
from .vqa import (
    AnsatzSpec,
    OptimizerConfig,
    VqaError,
    adapt_vqe,
    hubbard_hv_generator_groups,
    layered_ansatz,
    lowest_diagonal_reference,
    molecular_reference,
    singles_doubles_pool,
    vqe_minimize,
)


class CliError(Exception):
    pass


class ConfigError(CliError):
    exit_code = 2


class ModelError(CliError):
    exit_code = 3


# a failed computation: exit 4 from main, the row's error in a sweep
FAILURES = (CliError, FciqmcError, MatelemError, NsiError, VqaError,
            OperatorError, SimulatorError, np.linalg.LinAlgError)

BACKENDS = {b.kind: b for b in (ExactBackend, SampledBackend)}

CIRCUIT_FORMAT = "qcfciqmc-circuit"
CIRCUIT_VERSION = 1


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """`key = value` per line; blank lines and `#` comments ignored."""
    out: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


class _Conf:
    """Typed accessor over the flat mapping; tracks consumed keys so unknown
    ones can be rejected afterwards."""

    def __init__(self, mapping: dict):
        self.mapping = dict(mapping)
        self.used: set = set()

    def _typed(self, key, default, conv, what):
        if key not in self.mapping:
            return default
        self.used.add(key)
        value = self.mapping[key]
        try:
            return conv(value)
        except (ValueError, TypeError):
            raise ConfigError(f"{key}: expected {what}, got {value!r}") from None

    def get_int(self, key, default=None):
        return self._typed(key, default, int, "an integer")

    def get_float(self, key, default=None):
        return self._typed(key, default, float, "a number")

    def get_str(self, key, default=None):
        return self._typed(key, default, str, "a string")

    def get_path(self, key, default=None):
        return self._typed(key, default, Path, "a path")

    def get_bool(self, key, default=None):
        def conv(v):
            low = v.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(v)

        return self._typed(key, default, conv, "true/false")

    def get_int_list(self, key, default=None):
        def conv(v):
            return [int(x) for x in v.split(",") if x.strip() != ""]

        return self._typed(key, default, conv, "comma-separated integers")

    def build(self, cls, prefix, **given):
        """A `cls` whose fields, those not `given`, are read from the keys
        `prefix.<field>`, each with the field's default and that default's
        type; the class's own range checks fail as config errors."""
        readers = {bool: self.get_bool, int: self.get_int, float: self.get_float,
                   str: self.get_str}
        values = {f.name: readers[type(f.default)](f"{prefix}.{f.name}", f.default)
                  for f in fields(cls) if f.name not in given}
        return _checked(prefix, cls, **values, **given)

    def unknown_keys(self):
        return sorted(set(self.mapping) - self.used)


def _checked(prefix, make, *args, **kwargs):
    """make(*args, **kwargs), a library range check failing as a config error
    on the `prefix` section."""
    try:
        return make(*args, **kwargs)
    except (FciqmcError, MatelemError, NsiError, VqaError) as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def _parse_shape(value: str):
    try:
        rows, cols = value.lower().split("x")
        shape = (int(rows), int(cols))
    except ValueError:
        raise ConfigError(f"model.hubbard.shape: expected RxC, got {value!r}") from None
    if shape[0] < 1 or shape[1] < 1:
        raise ConfigError("model.hubbard.shape: dimensions must be positive")
    return shape


@dataclass
class ExperimentConfig:
    """Everything a subcommand needs, resolved from file + flag overrides:
    the library objects, each built from its config section, and the
    settings the CLI itself uses."""

    seed: int = 1
    output_dir: Path = Path(".")
    hubbard: HubbardSpec | None = None
    fcidump_path: Path | None = None
    fcidump_frozen: tuple = ()
    sector_override: tuple | None = None  # (n_up, n_dn)
    reference_override: int | None = None
    ansatz: AnsatzSpec = field(default_factory=AnsatzSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    vqe_init_scale: float = 0.2
    vqe_restarts: int = 1
    run: RunConfig = field(default_factory=RunConfig)
    nsi_beta: float = 0.1
    nsi_phi0: int | None = None
    backend: ExactBackend | SampledBackend = field(default_factory=ExactBackend)
    circuit_path: Path | None = None
    identity_basis: bool = False
    sweep_depths: list = field(default_factory=list)
    effective: dict = field(default_factory=dict)


def load_config(path, overrides=None) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    mapping = parse_config_text(path.read_text())
    for key, value in (overrides or {}).items():
        mapping[key] = value
    conf = _Conf(mapping)
    cfg = ExperimentConfig()  # its defaults are those of every key read below
    cfg.seed = conf.get_int("seed", cfg.seed)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    cfg.output_dir = conf.get_path("output.dir", cfg.output_dir)

    has_hubbard = any(k.startswith("model.hubbard.") for k in mapping)
    has_fcidump = any(k.startswith("model.fcidump.") for k in mapping)
    if has_hubbard == has_fcidump:
        raise ConfigError("config must name exactly one model source "
                          "(model.hubbard.* or model.fcidump.*)")
    if has_hubbard:
        shape = _parse_shape(conf.get_str("model.hubbard.shape", "1x2"))
        cfg.hubbard = conf.build(HubbardSpec, "model.hubbard", shape=shape)
        n_up = conf.get_int("model.hubbard.n_up")
        n_dn = conf.get_int("model.hubbard.n_dn")
        if (n_up is None) != (n_dn is None):
            raise ConfigError("model.hubbard.n_up and n_dn must be set together")
        if n_up is not None:
            cfg.sector_override = (n_up, n_dn)
    else:
        cfg.fcidump_path = conf.get_path("model.fcidump.path")
        if cfg.fcidump_path is None:
            raise ConfigError("model.fcidump.path is required")
        if not cfg.fcidump_path.is_file():
            raise ConfigError(f"fcidump file not found: {cfg.fcidump_path}")
        cfg.fcidump_frozen = tuple(conf.get_int_list("model.fcidump.frozen",
                                                     cfg.fcidump_frozen))
        if len(set(cfg.fcidump_frozen)) != len(cfg.fcidump_frozen):
            # each frozen orbital removes its two electrons once
            raise ConfigError(f"model.fcidump.frozen repeats an orbital: {cfg.fcidump_frozen}")

    cfg.ansatz = conf.build(AnsatzSpec, "ansatz")
    cfg.optimizer = conf.build(OptimizerConfig, "vqe")
    cfg.vqe_init_scale = conf.get_float("vqe.init_scale", cfg.vqe_init_scale)
    if not math.isfinite(cfg.vqe_init_scale):
        raise ConfigError(f"vqe.init_scale must be finite, got {cfg.vqe_init_scale}")
    cfg.vqe_restarts = conf.get_int("vqe.restarts", cfg.vqe_restarts)
    if cfg.vqe_restarts < 1:
        raise ConfigError("vqe.restarts must be at least 1")

    cfg.run = conf.build(RunConfig, "qmc", seed=cfg.seed)
    records = cfg.run.n_steps + 1  # each holds a mixed energy while the reference is occupied
    samples = records - int(cfg.run.equilibration_fraction * records)
    if samples < MIN_SAMPLES:
        raise ConfigError(f"qmc: total_time / delta_tau leaves {samples} post-equilibration "
                          f"samples; statistics needs >= {MIN_SAMPLES}")
    cfg.reference_override = conf.get_int("qmc.reference", cfg.reference_override)

    cfg.nsi_beta = _checked("nsi", check_beta, conf.get_float("nsi.beta", cfg.nsi_beta))
    cfg.nsi_phi0 = conf.get_int("nsi.phi0", cfg.nsi_phi0)

    kind = conf.get_str("backend.kind", cfg.backend.kind)
    if kind not in BACKENDS:
        raise ConfigError(f"backend.kind: expected {' or '.join(BACKENDS)}, got {kind!r}")
    cfg.backend = conf.build(BACKENDS[kind], "backend")
    unread = [k for k in conf.unknown_keys() if k.startswith("backend.")]
    if unread:
        raise ConfigError(f"backend options not valid for {kind} backend: {unread}")

    cfg.circuit_path = conf.get_path("circuit.path", cfg.circuit_path)
    cfg.identity_basis = conf.get_bool("identity.basis", cfg.identity_basis)
    cfg.sweep_depths = conf.get_int_list("sweep.depths", cfg.sweep_depths)
    if any(depth < 0 for depth in cfg.sweep_depths):
        raise ConfigError(f"sweep.depths must be non-negative, got {cfg.sweep_depths}")

    unknown = conf.unknown_keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg.effective = {k: str(v) for k, v in sorted(mapping.items())}
    return cfg


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

@dataclass
class BuiltModel:
    h: PauliSum
    n_qubits: int
    sector: np.ndarray
    reference: int
    label: str
    hubbard: HubbardSpec | None = None


def build_model(cfg: ExperimentConfig) -> BuiltModel:
    try:
        if cfg.hubbard is not None:
            spec = cfg.hubbard
            h = jordan_wigner(build_hubbard(spec))
            n = spec.n_qubits
            if cfg.sector_override is not None:
                n_up, n_dn = cfg.sector_override
            else:
                # half filling, extra electron (odd site count) goes spin-up
                n_up = (spec.n_sites + 1) // 2
                n_dn = spec.n_sites // 2
            sector = number_sector_indices(n, n_up=n_up, n_dn=n_dn)
            ref = lowest_diagonal_reference(h, sector)
            label = f"hubbard {spec.shape[0]}x{spec.shape[1]} t={spec.t} u={spec.u}"
        else:
            data = parse_fcidump(cfg.fcidump_path.read_text())
            ferm = build_molecular(data, cfg.fcidump_frozen)
            h = jordan_wigner(ferm)
            n = ferm.n_modes
            n_active_elec = data.n_electrons - 2 * len(cfg.fcidump_frozen)
            n_up = (n_active_elec + data.ms2) // 2
            n_dn = (n_active_elec - data.ms2) // 2
            sector = number_sector_indices(n, n_up=n_up, n_dn=n_dn)
            ref = molecular_reference(n, n_active_elec, data.ms2)
            label = f"fcidump {cfg.fcidump_path.name}"
    except (OperatorError, FcidumpError, VqaError) as exc:
        raise ModelError(str(exc)) from exc
    return BuiltModel(h=h, n_qubits=n, sector=sector, reference=int(ref),
                      label=label, hubbard=cfg.hubbard)


# ---------------------------------------------------------------------------
# circuit file format, version 1
# ---------------------------------------------------------------------------

def serialize_circuit(circuit: Circuit, params) -> str:
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_slots,):
        raise CliError("parameter count does not match circuit slots")
    lines = [
        f"{CIRCUIT_FORMAT} {CIRCUIT_VERSION}",
        f"qubits {circuit.n_qubits}",
        f"slots {circuit.n_slots}",
    ]
    for g in circuit.gates:
        if isinstance(g, BasisFlip):
            lines.append(f"flip {g.qubit}")
        elif isinstance(g, PauliApply):
            lines.append(f"apply {g.word.x_mask:#x} {g.word.z_mask:#x}")
        elif isinstance(g, PauliRotation):
            if g.slot is None:
                lines.append(f"frot {g.word.x_mask:#x} {g.word.z_mask:#x} {g.angle!r}")
            else:
                lines.append(
                    f"rot {g.word.x_mask:#x} {g.word.z_mask:#x} {g.slot} {g.scale!r}"
                )
        else:
            raise CliError(f"unserializable gate {type(g).__name__}")
    lines.append("params " + " ".join(repr(float(p)) for p in params))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str):
    """Inverse of serialize_circuit; returns (Circuit, params array)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("circuit file is empty")
    head = lines[0].split()
    if len(head) != 2 or head[0] != CIRCUIT_FORMAT:
        raise ConfigError("not a circuit file (bad header)")
    if head[1] != str(CIRCUIT_VERSION):
        raise ConfigError(f"unsupported circuit format version {head[1]}")

    def want(idx, name):
        parts = lines[idx].split() if idx < len(lines) else []
        if len(parts) != 2 or parts[0] != name:
            raise ConfigError(f"circuit file: expected '{name} N' on line {idx + 1}")
        try:
            return int(parts[1])
        except ValueError:
            raise ConfigError(f"circuit file: bad {name} count") from None

    n_qubits = want(1, "qubits")
    n_slots = want(2, "slots")
    gates = []
    params = None
    for ln, line in enumerate(lines[3:], start=4):
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "flip":
                gates.append(BasisFlip(int(parts[1])))
            elif kind == "apply":
                gates.append(PauliApply(PauliWord(n_qubits, int(parts[1], 16),
                                                  int(parts[2], 16))))
            elif kind == "frot":
                word = PauliWord(n_qubits, int(parts[1], 16), int(parts[2], 16))
                gates.append(PauliRotation(word, slot=None, angle=float(parts[3])))
            elif kind == "rot":
                word = PauliWord(n_qubits, int(parts[1], 16), int(parts[2], 16))
                gates.append(PauliRotation(word, slot=int(parts[3]),
                                           scale=float(parts[4])))
            elif kind == "params":
                params = np.array([float(x) for x in parts[1:]], dtype=float)
            else:
                raise ConfigError(f"circuit file line {ln}: unknown gate {kind!r}")
        except (IndexError, ValueError, OperatorError, SimulatorError):
            raise ConfigError(f"circuit file line {ln}: malformed entry {line!r}") from None
    if params is None:
        raise ConfigError("circuit file has no params line")
    if params.shape != (n_slots,):
        raise ConfigError("circuit file: params length does not match slots")
    if not np.isfinite(params).all():
        raise ConfigError("circuit file: params must be finite")
    try:
        circuit = Circuit(n_qubits, gates)
    except SimulatorError as exc:
        raise ConfigError(f"circuit file: {exc}") from None
    if circuit.n_slots != n_slots:
        raise ConfigError("circuit file: slot count does not match gates")
    return circuit, params


def load_circuit(cfg: ExperimentConfig):
    if cfg.circuit_path is None:
        raise ConfigError("circuit.path is required (or pass --identity-basis)")
    if not cfg.circuit_path.is_file():
        raise ConfigError(f"circuit file not found: {cfg.circuit_path}")
    return parse_circuit(cfg.circuit_path.read_text())


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _finite_or_null(value):
    """`value` with every non-finite float, such as an overflowed bound,
    replaced by None: JSON (RFC 8259) has no token for them, and None
    writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(cfg: ExperimentConfig, name: str, record: dict) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / name
    text = json.dumps(_finite_or_null(record), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def _check_dense(model: BuiltModel) -> None:
    """A model error when the sector (and so each walker sector) is over the limit."""
    dim = len(model.sector)
    if dim > DENSE_DIM_LIMIT:
        raise ModelError(f"sector dimension {dim} exceeds the dense limit {DENSE_DIM_LIMIT}")


class WalkerBasis(NamedTuple):
    """A walker basis {U|i>}: phi0 is a walker index, `position` its row in
    the sorted walker sector `walkers`."""
    circuit: Circuit
    params: np.ndarray
    phi0: int
    walkers: np.ndarray
    position: int


def _walker_basis(model: BuiltModel, determinant=None, circuit=None, params=()) -> WalkerBasis:
    """The walker basis of `circuit`, the identity basis (empty circuit)
    when none is given.  phi0 is the determinant, model.reference unless
    given and required to lie in the model's sector, XOR the circuit's
    leading basis flips, so a determinant names the same state in every
    basis: model.reference is walker 0 in the circuits the CLI writes."""
    n = model.n_qubits
    if circuit is None:
        circuit, params = Circuit(n, []), np.zeros(0)
    elif circuit.n_qubits != n:
        raise ConfigError("circuit qubit count does not match model")
    det = model.reference if determinant is None else determinant
    if not 0 <= det < 1 << n:
        raise ConfigError(f"reference determinant {det} out of range for {n} qubits")
    flips = _leading_flips(circuit)
    phi0 = det ^ flips
    walkers = _walker_sector(model, flips)
    position = int(np.searchsorted(walkers, phi0))
    if position == len(walkers) or walkers[position] != phi0:
        raise ConfigError(f"reference determinant {det} lies outside the model's "
                          "particle-number sector")
    return WalkerBasis(circuit, params, phi0, walkers, position)


def _leading_flips(circuit: Circuit) -> int:
    """The X mask of the basis flips the circuit starts with."""
    mask = 0
    for g in circuit.gates:
        if not isinstance(g, BasisFlip):
            break
        mask ^= 1 << g.qubit
    return mask


def _walker_sector(model: BuiltModel, flips: int) -> np.ndarray:
    """The walker indices of a circuit basis, sorted: the model's sector
    relabelled by the circuit's leading flips."""
    return np.sort(model.sector ^ flips)


def _sector_ground_energy(model: BuiltModel) -> float:
    _check_dense(model)
    sub = transformed_dense(model.h, Circuit(model.n_qubits, []), (), basis=model.sector)
    return diagonalize(sub).ground_energy()


def _check_ansatz(cfg: ExperimentConfig) -> None:
    """A config error when the configured ansatz cannot be built for the model."""
    if cfg.ansatz.kind == "hv" and cfg.hubbard is None:
        raise ConfigError("hv ansatz requires a hubbard model")


def _train_ansatz(cfg: ExperimentConfig, model: BuiltModel, depth=None, seed=None):
    """Run the configured VQE at the given depth over the walker sector;
    returns a VqeResult.  Every circuit trained here starts by flipping to
    model.reference."""
    _check_ansatz(cfg)
    spec = cfg.ansatz
    seed = cfg.seed if seed is None else seed
    walkers = _walker_sector(model, model.reference)
    if spec.kind == "hv":
        layers = spec.layers if depth is None else depth
        groups = hubbard_hv_generator_groups(model.hubbard)
        circuit = layered_ansatz(groups, layers, model.reference, model.n_qubits)
        rng = np.random.default_rng(seed)
        best = None
        # the all-zeros point is a symmetry saddle, so every start is random
        for _ in range(cfg.vqe_restarts):
            init = cfg.vqe_init_scale * rng.standard_normal(circuit.n_slots)
            res = vqe_minimize(circuit, model.h, init, cfg.optimizer, basis=walkers)
            if best is None or res.energy < best.energy:
                best = res
        return best
    max_ops = spec.max_operators if depth is None else depth
    pool = singles_doubles_pool(model.n_qubits)
    return adapt_vqe(model.h, pool, max_ops, model.reference, model.n_qubits,
                     gradient_tol=spec.gradient_tol, config=cfg.optimizer, basis=walkers)


def _run_qmc(cfg: ExperimentConfig, model: BuiltModel, basis: WalkerBasis, seed):
    """The projector run in the walker basis, its columns computed over the
    walker sector."""
    src = ElementSource(model.h, basis.circuit, basis.params, backend=cfg.backend,
                        seed=seed, basis=basis.walkers)
    traj = run(src, replace(cfg.run, seed=seed), phi0=basis.phi0)
    return traj, statistics(traj)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ed(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    energy = _sector_ground_energy(model)
    record = {
        "command": "ed",
        "model": model.label,
        "energy": energy,
        "dim": 1 << model.n_qubits,
        "sector_dim": int(len(model.sector)),
        "reference": model.reference,
        "config": cfg.effective,
    }
    _write_json(cfg, "ed.json", record)
    print(f"ed: ground energy {energy!r} (sector dim {len(model.sector)})")
    return record


def cmd_vqe(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    result = _train_ansatz(cfg, model)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    circuit_file = cfg.output_dir / "circuit.txt"
    circuit_file.write_text(serialize_circuit(result.circuit, result.params))
    record = {
        "command": "vqe",
        "model": model.label,
        "ansatz": cfg.ansatz.kind,
        "energy": result.energy,
        "converged": result.converged,
        "message": result.message,
        "iterations": len(result.history),
        "n_parameters": int(result.circuit.n_slots),
        "n_gates": len(result.circuit.gates),
        "reference": model.reference,
        "circuit_file": circuit_file.name,
        "config": cfg.effective,
    }
    _write_json(cfg, "vqe.json", record)
    print(f"vqe: energy {result.energy!r} ({record['iterations']} iterations, "
          f"converged={result.converged})")
    return record


def cmd_nsi(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    _check_dense(model)
    circuits = {"identity": ()}
    if not cfg.identity_basis and cfg.circuit_path is not None:
        circuits["transformed"] = load_circuit(cfg)
    record = {"command": "nsi", "model": model.label, "config": cfg.effective}
    for name, loaded in circuits.items():
        basis = _walker_basis(model, cfg.nsi_phi0, *loaded)
        hp = transformed_dense(model.h, basis.circuit, basis.params, basis=basis.walkers)
        rep = nsi_report(hp, cfg.nsi_beta, phi0=basis.position)
        rep.phi0 = basis.phi0  # the walker index, not the row position
        record[name] = rep.to_dict()
    s_identity = record["identity"]["s_thermal"]
    line = f"nsi: identity s_thermal {s_identity!r}"
    if "transformed" in record:
        s_trans = record["transformed"]["s_thermal"]
        record["ratio"] = s_trans / s_identity if s_identity > 0.0 else None
        line += f", transformed {s_trans!r}"
    _write_json(cfg, "nsi.json", record)
    print(line)
    return record


def cmd_qmc(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    loaded = () if cfg.identity_basis else load_circuit(cfg)
    basis = _walker_basis(model, cfg.reference_override, *loaded)
    traj, stats = _run_qmc(cfg, model, basis, cfg.seed)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    (cfg.output_dir / "trajectory.csv").write_text(trajectory_to_csv(traj))
    record = summary_record(traj, stats)
    record["run_config"] = record.pop("config")
    record["command"] = "qmc"
    record["model"] = model.label
    record["identity_basis"] = cfg.identity_basis
    record["config"] = cfg.effective
    _write_json(cfg, "summary.json", record)
    print(f"qmc: e_mixed {stats.mean!r} +- {stats.std_error!r} "
          f"({record['final_walkers']} walkers)")
    return record


def cmd_sweep(cfg: ExperimentConfig) -> dict:
    if not cfg.sweep_depths:
        raise ConfigError("sweep.depths is required for the sweep command")
    if any(cfg.sweep_depths):
        _check_ansatz(cfg)
    model = build_model(cfg)
    _check_dense(model)
    identity = _walker_basis(model, cfg.reference_override)
    header = ["depth", "e_vqe", "e_qmc_mean", "e_qmc_std", "nsi",
              "theorem1_bound", "error"]
    rows = []
    for index, depth in enumerate(cfg.sweep_depths):
        seed = cfg.seed + index  # derived seed, one independent stream per point
        row = dict.fromkeys(header) | {"depth": depth, "error": ""}
        try:
            if depth == 0:
                basis = identity
                row["e_vqe"] = diagonal_entry(model.h, model.reference)
            else:
                result = _train_ansatz(cfg, model, depth=depth, seed=seed)
                basis = _walker_basis(model, cfg.reference_override,
                                      result.circuit, result.params)
                row["e_vqe"] = result.energy
            hp = transformed_dense(model.h, basis.circuit, basis.params, basis=basis.walkers)
            rep = nsi_report(hp, cfg.nsi_beta)
            row["nsi"] = rep.s_thermal
            row["theorem1_bound"] = rep.theorem1_bound
            _, stats = _run_qmc(cfg, model, basis, seed)
            row["e_qmc_mean"] = stats.mean
            row["e_qmc_std"] = stats.std
        except FAILURES as exc:
            row["error"] = str(exc)
        rows.append(row)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for col in header:
            value = row[col]
            if value is None:
                cells.append("")
            elif col == "error":
                cells.append(str(value).replace(",", ";").replace("\n", " "))
            elif col == "depth":
                cells.append(str(value))
            else:
                cells.append(repr(float(value)))
        lines.append(",".join(cells))
    (cfg.output_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    record = {"command": "sweep", "model": model.label, "rows": rows,
              "config": cfg.effective}
    _write_json(cfg, "sweep.json", record)
    failures = sum(1 for r in rows if r["error"])
    print(f"sweep: {len(rows)} points, {failures} failed")
    return record


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {"ed": cmd_ed, "vqe": cmd_vqe, "nsi": cmd_nsi, "qmc": cmd_qmc,
            "sweep": cmd_sweep}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcfciqmc",
                                     description="hybrid QC-FCIQMC toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", default=None)
        p.add_argument("--backend", choices=["exact", "sampled"], default=None)
        p.add_argument("--identity-basis", action="store_true", default=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.output_dir is not None:
        overrides["output.dir"] = args.output_dir
    if args.backend is not None:
        overrides["backend.kind"] = args.backend
    if args.identity_basis:
        overrides["identity.basis"] = "true"
    try:
        cfg = load_config(args.config, overrides)
        COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, LeakError) as exc:  # a circuit that leaves the sector
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

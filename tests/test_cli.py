import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import basis_state
from qcfciqmc import cli
from qcfciqmc.cli import (
    CliError,
    ConfigError,
    ExperimentConfig,
    ModelError,
    cmd_sweep,
    load_config,
    parse_circuit,
    parse_config_text,
    serialize_circuit,
)
from qcfciqmc.exactdiag import diagonalize, number_sector_indices, project_to_sector
from qcfciqmc.fciqmc import RunConfig
from qcfciqmc.matelem import ExactBackend, SampledBackend
from qcfciqmc.nsi import transformed_dense
from qcfciqmc.operators import (
    FcidumpData,
    HubbardSpec,
    PauliSum,
    PauliTerm,
    PauliWord,
    build_hubbard,
    build_molecular,
    diagonal_entry,
    jordan_wigner,
    parse_fcidump,
    serialize_fcidump,
    to_dense,
)
from qcfciqmc.simulator import (
    BasisFlip,
    Circuit,
    PauliApply,
    PauliRotation,
    apply_circuit,
    compile_circuit,
    transformed_columns,
)
from qcfciqmc.vqa import AnsatzSpec, OptimizerConfig

E_1X2 = 2.0 - 2.0 * math.sqrt(2.0)


def write_conf(tmp_path, body, name="exp.conf"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def lattice_fcidump(spec):
    """A Hubbard lattice written as integrals: h1 = -t * adjacency, (ii|ii) = U."""
    data = FcidumpData(n_orbitals=spec.n_sites, n_electrons=spec.n_sites, ms2=0)
    for (i, j) in spec.edges():
        data.set_h1(i + 1, j + 1, -spec.t)
    for i in range(1, spec.n_sites + 1):
        data.set_eri(i, i, i, i, spec.u)
    return data


BASE_1X2 = """
seed = 3
output.dir = {out}
model.hubbard.shape = 1x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
ansatz.kind = adapt
ansatz.max_operators = 6
ansatz.gradient_tol = 1e-4
qmc.total_time = 4.0
qmc.delta_tau = 2e-3
qmc.threshold = 400
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_text_basics():
    text = """
    # comment
    seed = 7

    model.hubbard.shape = 2x2   # trailing comment
    output.dir = runs/a
    """
    mapping = parse_config_text(text)
    assert mapping == {"seed": "7", "model.hubbard.shape": "2x2",
                       "output.dir": "runs/a"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text(" = 3\n")


def test_load_config_unknown_key(tmp_path):
    conf = write_conf(tmp_path, "model.hubbard.shape = 1x2\nmodel.hubbard.typo = 1\n")
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(conf)


def test_load_config_requires_one_model(tmp_path):
    with pytest.raises(ConfigError, match="exactly one model"):
        load_config(write_conf(tmp_path, "seed = 1\n"))
    both = "model.hubbard.shape = 1x2\nmodel.fcidump.path = x\n"
    with pytest.raises(ConfigError, match="exactly one model"):
        load_config(write_conf(tmp_path, both))
    with pytest.raises(ConfigError, match="model.fcidump.path is required"):
        load_config(write_conf(tmp_path, "model.fcidump.frozen = 1\n"))


def test_load_config_shape_and_values(tmp_path):
    conf = write_conf(tmp_path, """
model.hubbard.shape = 2x3
model.hubbard.t = 0.5
model.hubbard.u = 8
model.hubbard.periodic = true
vqe.max_iterations = 50
nsi.beta = 0.2
""")
    cfg = load_config(conf)
    assert cfg.hubbard.shape == (2, 3)
    assert cfg.hubbard.periodic is True
    assert cfg.optimizer.max_iterations == 50
    assert cfg.nsi_beta == 0.2


def test_load_config_bad_shape(tmp_path):
    with pytest.raises(ConfigError, match="shape"):
        load_config(write_conf(tmp_path, "model.hubbard.shape = 4\n"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.conf")


def test_a_config_without_optional_keys_takes_the_library_defaults(tmp_path):
    cfg = load_config(write_conf(tmp_path, "model.hubbard.shape = 1x2\n"))
    assert cfg.run == RunConfig(seed=1)
    assert cfg.optimizer == OptimizerConfig()
    assert cfg.ansatz == AnsatzSpec()
    assert cfg.backend == ExactBackend()
    assert cfg.hubbard == HubbardSpec((1, 2))
    default = ExperimentConfig()
    assert (cfg.seed, cfg.output_dir, cfg.nsi_beta, cfg.vqe_init_scale, cfg.vqe_restarts) \
        == (default.seed, default.output_dir, default.nsi_beta, default.vqe_init_scale,
            default.vqe_restarts)


def test_each_section_builds_its_library_object(tmp_path):
    """Every key of a section sets the field of the same name; qmc runs
    take the top-level seed."""
    cfg = load_config(write_conf(tmp_path, """
seed = 7
model.hubbard.shape = 1x2
ansatz.kind = adapt
ansatz.max_operators = 4
vqe.armijo = 0.01
qmc.threshold = 300
qmc.delta_tau = 2e-3
backend.kind = sampled
backend.shots_sign = 4000
backend.magnitude_floor = 1e-6
"""))
    assert cfg.ansatz == AnsatzSpec(kind="adapt", max_operators=4)
    assert cfg.optimizer == OptimizerConfig(armijo=0.01)
    assert cfg.run == RunConfig(seed=7, threshold=300, delta_tau=2e-3)
    assert cfg.backend == SampledBackend(shots_sign=4000, magnitude_floor=1e-6)


OUT_OF_RANGE = [
    ("ansatz.kind = uccsd", "ansatz: kind must be hv or adapt, got 'uccsd'"),
    ("ansatz.layers = -1", "ansatz: layers and max_operators must be non-negative"),
    ("qmc.equilibration_fraction = 1", "qmc: equilibration_fraction must lie in"),
    ("qmc.delta_tau = nan", "qmc: delta_tau must be positive"),
    ("backend.kind = sampled\nbackend.shots_magnitude = 0", "backend: shots_magnitude"),
    ("backend.kind = qpu", "backend.kind: expected exact or sampled, got 'qpu'"),
    ("vqe.gtol = -1e-6", "vqe: gtol must be non-negative"),
    ("vqe.max_iterations = -1", "vqe: max_iterations must be non-negative"),
    ("vqe.armijo = 1", r"vqe: armijo must lie in \(0, 1\)"),
    ("vqe.shrink = 0", r"vqe: shrink must lie in \(0, 1\)"),
    ("vqe.initial_step = inf", "vqe: initial_step must be positive and finite"),
    ("vqe.max_backtracks = 0", "vqe: max_backtracks must be at least 1"),
    ("vqe.init_scale = nan", "vqe.init_scale must be finite, got nan"),
    ("qmc.damping = nan", "qmc: damping must be finite and non-negative"),
    ("qmc.damping = inf", "qmc: damping must be finite and non-negative"),
    ("qmc.damping = -1", "qmc: damping must be finite and non-negative"),
    ("qmc.threshold = -5", "qmc: threshold must be non-negative"),
    ("qmc.initial_walkers = 100000000000000000000",
     "qmc: initial_walkers must fit in a signed 64-bit count"),
]


@pytest.mark.parametrize("setting, message", OUT_OF_RANGE,
                         ids=[s.splitlines()[-1].split(" =")[0] for s, _ in OUT_OF_RANGE])
def test_out_of_range_settings_are_config_errors_at_load(tmp_path, setting, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_conf(tmp_path, "model.hubbard.shape = 1x2\n" + setting + "\n"))


@pytest.mark.parametrize("setting", ["vqe.initial_step = -1", "vqe.shrink = 0",
                                     "vqe.init_scale = nan"])
def test_a_bad_optimizer_setting_stops_vqe_at_load(tmp_path, capsys, setting):
    """A negative first step lets the Armijo test accept uphill steps, a
    zero shrink backtracks to zero-length steps, and a NaN start scale
    gives NaN angles: vqe exits 2 before any model is built or file
    written."""
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out) + setting + "\n")
    assert cli.main(["vqe", conf]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.conf"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_shipped_config_loads(path):
    cfg = load_config(path)
    assert cfg.effective == parse_config_text(path.read_text())


def test_flag_overrides_take_precedence(tmp_path):
    conf = write_conf(tmp_path, "seed = 3\nmodel.hubbard.shape = 1x2\n")
    cfg = load_config(conf, {"seed": "11"})
    assert cfg.seed == 11
    assert cfg.effective["seed"] == "11"


# ---------------------------------------------------------------------------
# circuit file round trip
# ---------------------------------------------------------------------------

def sample_circuit():
    w1 = PauliWord(3, 0b011, 0b110)
    w2 = PauliWord(3, 0b101, 0b000)
    gates = [
        BasisFlip(0),
        BasisFlip(2),
        PauliRotation(w1, slot=0, scale=-2.0),
        PauliApply(w2),
        PauliRotation(w2, slot=None, angle=0.7853981633974483),
        PauliRotation(w2, slot=1, scale=1.5),
    ]
    return Circuit(3, gates), np.array([0.3141592653589793, -1.1])


def test_circuit_round_trip_statevector():
    circuit, params = sample_circuit()
    text = serialize_circuit(circuit, params)
    loaded, lparams = parse_circuit(text)
    assert loaded.gates == circuit.gates
    np.testing.assert_array_equal(lparams, params)
    a = apply_circuit(basis_state(3, 0), circuit, params)
    b = apply_circuit(basis_state(3, 0), loaded, lparams)
    np.testing.assert_array_equal(a, b)


def test_circuit_serialization_is_stable():
    circuit, params = sample_circuit()
    text = serialize_circuit(circuit, params)
    again = serialize_circuit(*parse_circuit(text))
    assert again == text


def test_circuit_format_versioned():
    circuit, params = sample_circuit()
    text = serialize_circuit(circuit, params)
    assert text.splitlines()[0] == "qcfciqmc-circuit 1"
    bumped = text.replace("qcfciqmc-circuit 1", "qcfciqmc-circuit 2")
    with pytest.raises(ConfigError, match="version"):
        parse_circuit(bumped)


def test_circuit_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_circuit("")
    with pytest.raises(ConfigError):
        parse_circuit("something else\n")
    good = serialize_circuit(*sample_circuit())
    with pytest.raises(ConfigError, match="malformed"):
        parse_circuit(good.replace("flip 0", "flip zero"))
    with pytest.raises(ConfigError, match="params"):
        parse_circuit(good.rsplit("params", 1)[0])  # params line removed
    for text in BAD_GATES.values():
        with pytest.raises(ConfigError, match="circuit file"):
            parse_circuit(text)


# well-formed lines whose gates or parameters no 4-qubit circuit can hold
BAD_GATES = {
    "flip past the last qubit": "qcfciqmc-circuit 1\nqubits 4\nslots 0\nflip 99\nparams\n",
    "flip of a negative qubit": "qcfciqmc-circuit 1\nqubits 4\nslots 0\nflip -1\nparams\n",
    "negative slot": "qcfciqmc-circuit 1\nqubits 4\nslots 0\nrot 0x3 0x2 -1 1.0\nparams\n",
    "nan param": "qcfciqmc-circuit 1\nqubits 4\nslots 1\nrot 0x3 0x2 0 1.0\nparams nan\n",
    "infinite param": "qcfciqmc-circuit 1\nqubits 4\nslots 1\nrot 0x3 0x2 0 1.0\nparams -inf\n",
    "infinite rot scale": "qcfciqmc-circuit 1\nqubits 4\nslots 1\nrot 0x3 0x2 0 inf\nparams 0.1\n",
    "nan frot angle": "qcfciqmc-circuit 1\nqubits 4\nslots 0\nfrot 0x3 0x2 nan\nparams\n",
}

# files that end before their qubit or slot count
CUT_SHORT = {
    "header only": "qcfciqmc-circuit 1\n",
    "no slots line": "qcfciqmc-circuit 1\nqubits 4\n",
}


@pytest.mark.parametrize("text", [*BAD_GATES.values(), *CUT_SHORT.values()],
                         ids=[*BAD_GATES, *CUT_SHORT])
def test_a_circuit_file_with_a_bad_gate_is_a_config_error(tmp_path, capsys, text):
    """qmc and nsi refuse such a file with exit 2, writing nothing."""
    out = tmp_path / "out"
    path = tmp_path / "bad.txt"
    path.write_text(text)
    conf = write_conf(tmp_path, BASE_1X2.format(out=out) + f"circuit.path = {path}\n")
    for command in ("qmc", "nsi"):
        assert cli.main([command, conf]) == 2
        assert "circuit file" in capsys.readouterr().err
    assert not out.exists()


def test_circuit_params_length_checked():
    circuit, params = sample_circuit()
    with pytest.raises(CliError):
        serialize_circuit(circuit, params[:1])
    text = serialize_circuit(circuit, params)
    short = text.replace("params 0.3141592653589793 -1.1", "params 0.25")
    with pytest.raises(ConfigError, match="length"):
        parse_circuit(short)


def test_empty_circuit_round_trips():
    text = serialize_circuit(Circuit(4, []), np.zeros(0))
    loaded, params = parse_circuit(text)
    assert loaded.gates == ()
    assert loaded.n_qubits == 4
    assert params.shape == (0,)


# ---------------------------------------------------------------------------
# cmd_ed
# ---------------------------------------------------------------------------

def test_ed_1x2_hubbard(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out))
    assert cli.main(["ed", conf]) == 0
    record = json.loads((out / "ed.json").read_text())
    assert abs(record["energy"] - E_1X2) < 1e-10
    assert record["sector_dim"] == 4
    assert record["config"]["seed"] == "3"


def test_ed_identity_only_hamiltonian():
    h = PauliSum([PauliTerm(-1.5, PauliWord(2, 0, 0))])
    model = cli.BuiltModel(h=h, n_qubits=2, sector=np.arange(4), reference=0,
                           label="identity")
    assert abs(cli._sector_ground_energy(model) + 1.5) < 1e-12


@pytest.mark.parametrize("source", ["hubbard 1x2", "hubbard 2x2", "fcidump 1x2",
                                    "fcidump 2x2"])
def test_empty_circuit_reads_the_dense_matrix_bit_for_bit(tmp_path, source):
    """The identity basis read through H' = U^dag H U with the empty circuit
    is the dense matrix and its sector block byte for byte, so ed and the
    identity NSI reports see the same numbers as a direct dense build."""
    kind, shape = source.split()
    spec = HubbardSpec(shape=tuple(int(x) for x in shape.split("x")), t=1.0, u=4.0)
    if kind == "hubbard":
        body = f"model.hubbard.shape = {shape}\nmodel.hubbard.t = 1.0\nmodel.hubbard.u = 4.0\n"
    else:
        path = tmp_path / "lattice.fcidump"
        path.write_text(serialize_fcidump(lattice_fcidump(spec)))
        body = f"model.fcidump.path = {path}\n"
    model = cli.build_model(load_config(write_conf(tmp_path, body)))
    empty = Circuit(model.n_qubits, [])
    dense = to_dense(model.h).real
    hp = transformed_dense(model.h, empty, ())
    assert hp.dtype == dense.dtype and hp.tobytes() == dense.tobytes()
    cols = transformed_columns(model.h, compile_circuit(empty), model.sector)[model.sector]
    block = project_to_sector(dense, model.sector)
    assert cols.dtype == block.dtype and cols.tobytes() == block.tobytes()
    sub = transformed_dense(model.h, empty, (), basis=model.sector)
    assert sub.dtype == block.dtype and sub.tobytes() == block.tobytes()
    assert cli._sector_ground_energy(model) == diagonalize(block).ground_energy()


def test_malformed_fcidump_is_a_model_error(tmp_path, capsys):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n 0.5 1 1 x 1\n 0.0 0 0 0 0\n")
    conf = write_conf(tmp_path, f"output.dir = {tmp_path / 'out'}\nmodel.fcidump.path = {bad}\n")
    assert cli.main(["ed", conf]) == 3
    assert "model error" in capsys.readouterr().err


def test_fcidump_nelec_and_ms2_that_disagree_is_a_model_error(tmp_path, capsys):
    """NELEC=3 with MS2=0 names no spin sector: exit 3, not an energy of
    another electron count."""
    data = lattice_fcidump(HubbardSpec((1, 2), 1.0, 4.0))
    data.n_electrons = 3
    path = tmp_path / "odd.fcidump"
    path.write_text(serialize_fcidump(data))
    conf = write_conf(tmp_path, f"output.dir = {tmp_path / 'out'}\nmodel.fcidump.path = {path}\n")
    assert cli.main(["ed", conf]) == 3
    assert "MS2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ed.json").exists()


def chain_fcidump():
    """A 3-orbital, 4-electron chain: h11 = -2, h12 = h23 = -1, (ii|ii) = 4."""
    data = FcidumpData(n_orbitals=3, n_electrons=4, ms2=0)
    data.set_h1(1, 1, -2.0)
    data.set_h1(1, 2, -1.0)
    data.set_h1(2, 3, -1.0)
    for i in (1, 2, 3):
        data.set_eri(i, i, i, i, 4.0)
    return data


def test_frozen_core_ed_matches_the_full_block_with_the_core_occupied(tmp_path):
    """Freezing orbital 1 of the chain leaves the Hubbard dimer t = 1, U = 4
    on orbitals 2 and 3: `ed` must give the full H's lowest eigenvalue on the
    (2, 2)-sector determinants that hold modes 0 and 1."""
    data = chain_fcidump()
    path = tmp_path / "chain.fcidump"
    path.write_text(serialize_fcidump(data))
    out = tmp_path / "out"
    conf = write_conf(tmp_path, f"output.dir = {out}\nmodel.fcidump.path = {path}\n"
                                "model.fcidump.frozen = 1\n")
    assert cli.main(["ed", conf]) == 0
    record = json.loads((out / "ed.json").read_text())
    assert record["sector_dim"] == 4
    full = to_dense(jordan_wigner(build_molecular(data))).real
    core = [i for i in number_sector_indices(6, n_up=2, n_dn=2) if i & 0b11 == 0b11]
    assert len(core) == 4
    e_block = np.linalg.eigvalsh(full[np.ix_(core, core)])[0]
    assert record["energy"] == pytest.approx(e_block, abs=1e-12)
    assert record["energy"] == pytest.approx(E_1X2, abs=1e-12)


def test_a_repeated_frozen_orbital_is_a_config_error(tmp_path, capsys):
    """Orbital 1 frozen twice would remove its two electrons twice: exit 2,
    not the energy of a 0-electron block."""
    path = tmp_path / "chain.fcidump"
    path.write_text(serialize_fcidump(chain_fcidump()))
    out = tmp_path / "out"
    conf = write_conf(tmp_path, f"output.dir = {out}\nmodel.fcidump.path = {path}\n"
                                "model.fcidump.frozen = 1, 1\n")
    assert cli.main(["ed", conf]) == 2
    assert "repeats an orbital" in capsys.readouterr().err
    assert not (out / "ed.json").exists()


def test_ed_dense_limit_exit_code(tmp_path):
    """The 1x9 lattice's half-filling sector has 126^2 = 15876 determinants,
    over the dense limit of 4900."""
    conf = write_conf(tmp_path, f"""
output.dir = {tmp_path / 'out'}
model.hubbard.shape = 1x9
model.hubbard.t = 1.0
model.hubbard.u = 4.0
""")
    assert cli.main(["ed", conf]) == 3


def test_the_dense_limit_counts_the_sector_dimension(tmp_path, capsys, monkeypatch):
    """With the one dense limit below the 1x2 sector's dimension (4), the
    commands that build dense matrices (ed, nsi, sweep) stop with a model
    error naming the sector dimension; vqe and qmc build none."""
    from qcfciqmc import exactdiag, nsi, operators

    for module in (operators, exactdiag, nsi, cli):
        monkeypatch.setattr(module, "DENSE_DIM_LIMIT", 3)
    out = tmp_path / "out"
    conf = write_conf(tmp_path, SWEEP_1X2.format(out=out)
                      + f"circuit.path = {out / 'circuit.txt'}\n")
    for command in ("ed", "nsi", "sweep"):
        assert cli.main([command, conf]) == 3
        assert "sector dimension 4 exceeds the dense limit 3" in capsys.readouterr().err
    assert cli.main(["vqe", conf]) == 0
    assert cli.main(["qmc", conf]) == 0


HUBBARD_2X2 = """
seed = 3
output.dir = {out}
model.hubbard.shape = 2x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
"""


def test_ed_sector_override_matches_the_dense_sector_block(tmp_path):
    """n_up = n_dn = 1 on 2x2: 4 * 4 determinants, and the ground energy of
    that block of the dense Hamiltonian."""
    out = tmp_path / "out"
    conf = write_conf(tmp_path, HUBBARD_2X2.format(out=out)
                      + "model.hubbard.n_up = 1\nmodel.hubbard.n_dn = 1\n")
    assert cli.main(["ed", conf]) == 0
    record = json.loads((out / "ed.json").read_text())
    assert record["sector_dim"] == 16
    sector = number_sector_indices(8, n_up=1, n_dn=1)
    dense = to_dense(jordan_wigner(build_hubbard(HubbardSpec((2, 2), t=1.0, u=4.0)))).real
    oracle = np.linalg.eigvalsh(dense[np.ix_(sector, sector)])[0]
    assert abs(record["energy"] - oracle) < 1e-10


def test_ed_sector_override_needs_both_spins(tmp_path, capsys):
    conf = write_conf(tmp_path, HUBBARD_2X2.format(out=tmp_path / "out")
                      + "model.hubbard.n_up = 1\n")
    assert cli.main(["ed", conf]) == 2
    assert "n_up and n_dn must be set together" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cmd_vqe
# ---------------------------------------------------------------------------

def test_vqe_adapt_1x2_reaches_ed(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out))
    assert cli.main(["vqe", conf]) == 0
    record = json.loads((out / "vqe.json").read_text())
    assert abs(record["energy"] - E_1X2) < 1e-6
    assert record["converged"] is True

    # reloaded circuit reproduces the recorded energy
    circuit, params = parse_circuit((out / "circuit.txt").read_text())
    from qcfciqmc.vqa import circuit_energy
    from qcfciqmc.operators import HubbardSpec, build_hubbard, jordan_wigner
    h = jordan_wigner(build_hubbard(HubbardSpec(shape=(1, 2), t=1.0, u=4.0)))
    assert abs(circuit_energy(circuit, h, params) - record["energy"]) < 1e-12


def test_vqe_zero_layer_hv_gives_reference_energy(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, f"""
seed = 5
output.dir = {out}
model.hubbard.shape = 1x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
ansatz.kind = hv
ansatz.layers = 0
""")
    assert cli.main(["vqe", conf]) == 0
    record = json.loads((out / "vqe.json").read_text())
    # reference determinant is singly occupied on each site: diagonal 0
    assert abs(record["energy"]) < 1e-12
    assert record["n_parameters"] == 0


def test_vqe_trains_the_paper_scale_2x4_hubbard_ansatz(tmp_path):
    """The paper's 16-qubit system: three descent steps of the one-layer hv
    ansatz over the 4900-dim walker sector, ending at or below the
    reference determinant's diagonal entry."""
    out = tmp_path / "out"
    conf = write_conf(tmp_path, f"""
seed = 1
output.dir = {out}
model.hubbard.shape = 2x4
model.hubbard.t = 1.0
model.hubbard.u = 4.0
ansatz.kind = hv
ansatz.layers = 1
vqe.gtol = 0
vqe.max_iterations = 3
""")
    assert cli.main(["vqe", conf]) == 0
    record = json.loads((out / "vqe.json").read_text())
    assert record["iterations"] == 4 and record["n_parameters"] == 6
    h = jordan_wigner(build_hubbard(HubbardSpec(shape=(2, 4), t=1.0, u=4.0)))
    assert record["energy"] <= diagonal_entry(h, record["reference"])


VQE_2X2_HV = HUBBARD_2X2 + """
ansatz.kind = hv
ansatz.layers = 1
vqe.max_iterations = 8
"""


def test_vqe_restarts_keep_the_best_start(tmp_path):
    """Two restarts begin with the one start of a single run (same seed), so
    the kept energy is no higher; at seed 3 the second start ends lower."""
    energies = []
    for restarts in (1, 2):
        out = tmp_path / f"out{restarts}"
        conf = write_conf(tmp_path, VQE_2X2_HV.format(out=out)
                          + f"vqe.restarts = {restarts}\n", name=f"r{restarts}.conf")
        assert cli.main(["vqe", conf]) == 0
        energies.append(json.loads((out / "vqe.json").read_text())["energy"])
    assert energies[1] <= energies[0]
    assert energies[1] != energies[0]  # the second start ran and was kept


def test_vqe_zero_restarts_is_a_config_error(tmp_path, capsys):
    conf = write_conf(tmp_path, VQE_2X2_HV.format(out=tmp_path / "out") + "vqe.restarts = 0\n")
    assert cli.main(["vqe", conf]) == 2
    assert "vqe.restarts must be at least 1" in capsys.readouterr().err


def test_fcidump_hubbard_lattice_matches_hubbard_model(tmp_path):
    """The molecular path end to end, on a 2x2 Hubbard lattice written as
    integrals: h1 = -t * adjacency and (ii|ii) = U."""
    spec = HubbardSpec(shape=(2, 2), t=1.0, u=4.0)
    path = tmp_path / "hubbard2x2.fcidump"
    path.write_text(serialize_fcidump(lattice_fcidump(spec)))
    molecular = to_dense(jordan_wigner(build_molecular(parse_fcidump(path.read_text()))))
    lattice = to_dense(jordan_wigner(build_hubbard(spec)))
    assert np.abs(molecular - lattice).max() < 1e-12

    energies = {}
    for name, model in (
        ("hubbard", "model.hubbard.shape = 2x2\nmodel.hubbard.t = 1.0\nmodel.hubbard.u = 4.0"),
        ("fcidump", f"model.fcidump.path = {path}"),
    ):
        out = tmp_path / name
        conf = write_conf(tmp_path, f"output.dir = {out}\n{model}\n", name=f"{name}.conf")
        assert cli.main(["ed", conf]) == 0
        energies[name] = json.loads((out / "ed.json").read_text())["energy"]
    assert abs(energies["fcidump"] - energies["hubbard"]) < 1e-10


def test_molecular_dimer_every_command(tmp_path):
    """ed, vqe, nsi, qmc and sweep on the Hubbard dimer written as an FCIDUMP
    (h1 = -t, (ii|ii) = U): Aufbau reference, ADAPT ansatz, trained basis."""
    fcidump = tmp_path / "dimer.fcidump"
    fcidump.write_text(serialize_fcidump(lattice_fcidump(HubbardSpec((1, 2), 1.0, 4.0))))
    out = tmp_path / "out"
    conf = write_conf(tmp_path, f"""
seed = 3
output.dir = {out}
model.fcidump.path = {fcidump}
ansatz.kind = adapt
ansatz.max_operators = 6
ansatz.gradient_tol = 1e-4
circuit.path = {out / 'circuit.txt'}
qmc.total_time = 4.0
qmc.delta_tau = 2e-3
qmc.threshold = 400
nsi.beta = 0.1
sweep.depths = 0, 2
""")
    for command in ("ed", "vqe", "nsi", "qmc", "sweep"):
        assert cli.main([command, conf]) == 0, command
    e_ed = json.loads((out / "ed.json").read_text())["energy"]
    assert abs(e_ed - E_1X2) < 1e-10
    assert abs(json.loads((out / "vqe.json").read_text())["energy"] - e_ed) < 1e-6
    assert abs(json.loads((out / "summary.json").read_text())["mean_e_mixed"] - e_ed) < 1e-6
    nsi = json.loads((out / "nsi.json").read_text())
    assert {"identity", "transformed", "ratio"} <= set(nsi)
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert [r["depth"] for r in rows] == [0, 2]
    assert all(r["error"] == "" for r in rows)


def test_vqe_hv_requires_hubbard(tmp_path, n2_missing=None):
    fake = tmp_path / "mol.fcidump"
    fake.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n"
                    " 1.0 1 1 0 0\n 0.0 0 0 0 0\n")
    conf = write_conf(tmp_path, f"""
output.dir = {tmp_path / 'out'}
model.fcidump.path = {fake}
ansatz.kind = hv
""")
    assert cli.main(["vqe", conf]) == 2


# ---------------------------------------------------------------------------
# cmd_nsi
# ---------------------------------------------------------------------------

def test_nsi_identity_circuit_ratio_one(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    circuit_file = out / "identity.txt"
    circuit_file.write_text(serialize_circuit(Circuit(8, []), np.zeros(0)))
    conf = write_conf(tmp_path, f"""
output.dir = {out}
model.hubbard.shape = 2x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
circuit.path = {circuit_file}
nsi.beta = 0.1
""")
    assert cli.main(["nsi", conf]) == 0
    record = json.loads((out / "nsi.json").read_text())
    assert record["identity"]["s_thermal"] > 0.0
    # both reports read the same matrix through the same path
    assert record["ratio"] == 1.0
    assert record["transformed"] == record["identity"]


def test_nsi_diagonalizing_circuit_near_zero(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out))
    assert cli.main(["vqe", conf]) == 0
    conf2 = write_conf(tmp_path, BASE_1X2.format(out=out)
                       + f"circuit.path = {out / 'circuit.txt'}\n", name="nsi.conf")
    assert cli.main(["nsi", conf2]) == 0
    record = json.loads((out / "nsi.json").read_text())
    # the exact basis leaves only roundoff, which reads as no sign problem
    assert record["transformed"]["s_thermal"] == record["transformed"]["s_initial"] == 0.0
    assert record["transformed"]["avg_sign"] == 1.0
    # stoquastic instance: identity indicator is exactly zero, no ratio defined
    assert record["identity"]["s_thermal"] == 0.0
    assert record["ratio"] is None


def test_nsi_ratio_matches_direct_computation(tmp_path):
    """Both reports are over the walker sector: the identity block is the
    full dense matrix's sector block, bit for bit, and the transformed block
    is the full-space H' restricted to the walker sector."""
    from qcfciqmc.nsi import nsi_report
    from qcfciqmc.vqa import (hubbard_hv_generator_groups, layered_ansatz,
                              lowest_diagonal_reference)

    spec = HubbardSpec(shape=(2, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    sector = number_sector_indices(8, n_up=2, n_dn=2)
    ref = lowest_diagonal_reference(h, sector)
    circuit = layered_ansatz(hubbard_hv_generator_groups(spec), 1, ref, 8)
    rng = np.random.default_rng(9)
    params = 0.1 * rng.standard_normal(circuit.n_slots)

    out = tmp_path / "out"
    out.mkdir()
    circuit_file = out / "c.txt"
    circuit_file.write_text(serialize_circuit(circuit, params))
    conf = write_conf(tmp_path, f"""
output.dir = {out}
model.hubbard.shape = 2x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
circuit.path = {circuit_file}
nsi.beta = 0.1
""")
    assert cli.main(["nsi", conf]) == 0
    record = json.loads((out / "nsi.json").read_text())
    position = int(np.searchsorted(sector, ref))
    identity = nsi_report(project_to_sector(to_dense(h).real, sector), 0.1,
                          phi0=position).to_dict()
    assert identity.pop("phi0") == position and record["identity"].pop("phi0") == ref
    assert json.dumps(record["identity"], sort_keys=True) == json.dumps(identity, sort_keys=True)

    walkers = np.sort(sector ^ ref)  # the circuit starts by flipping to ref
    block = project_to_sector(transformed_dense(h, circuit, params), walkers)
    np.testing.assert_allclose(transformed_dense(h, circuit, params, basis=walkers), block,
                               rtol=0, atol=1e-12)
    s_tr = nsi_report(block, 0.1).s_thermal
    assert abs(record["transformed"]["s_thermal"] - s_tr) < 1e-12
    assert record["transformed"]["phi0"] == 0
    s_id = identity["s_thermal"]
    assert abs(record["ratio"] - s_tr / s_id) < 1e-9


def test_nsi_phi0_names_a_model_determinant_in_every_basis(tmp_path):
    """nsi.phi0 set to the model reference (6 on the dimer) is the default:
    in the trained basis it lands on the trained state, walker 0."""
    out = tmp_path / "out"
    assert cli.main(["vqe", write_conf(tmp_path, BASE_1X2.format(out=out))]) == 0
    body = BASE_1X2.format(out=out) + f"circuit.path = {out / 'circuit.txt'}\n"
    assert cli.main(["nsi", write_conf(tmp_path, body, name="a.conf")]) == 0
    default = json.loads((out / "nsi.json").read_text())
    reference = json.loads((out / "vqe.json").read_text())["reference"]
    assert reference == 6
    keyed = write_conf(tmp_path, body + f"nsi.phi0 = {reference}\n", name="b.conf")
    assert cli.main(["nsi", keyed]) == 0
    record = json.loads((out / "nsi.json").read_text())
    assert record["transformed"] == default["transformed"]
    assert record["identity"] == default["identity"]
    assert record["transformed"]["phi0"] == 0
    assert record["identity"]["phi0"] == reference


def test_nsi_circuit_qubit_mismatch(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    wrong = out / "wrong.txt"
    wrong.write_text(serialize_circuit(Circuit(6, []), np.zeros(0)))
    conf = write_conf(tmp_path, BASE_1X2.format(out=out) + f"circuit.path = {wrong}\n")
    assert cli.main(["nsi", conf]) == 2


@pytest.mark.parametrize("command, key", [("nsi", "nsi.phi0"), ("qmc", "qmc.reference"),
                                          ("sweep", "qmc.reference")])
@pytest.mark.parametrize("value", [-1, 16, 1])
def test_reference_determinant_out_of_range_is_a_config_error(tmp_path, capsys,
                                                              command, key, value):
    """1 = 0b0001 is in range but holds one electron, outside the 1x2
    model's one-up, one-down sector; each command refuses it before any
    training or run."""
    out = tmp_path / "out"
    body = SWEEP_1X2.format(out=out) + f"{key} = {value}\n"
    assert cli.main([command, write_conf(tmp_path, body), "--identity-basis"]) == 2
    err = capsys.readouterr().err
    if value == 1:
        assert "lies outside the model's particle-number sector" in err
    else:
        assert "out of range" in err
    assert not out.exists()


def test_walker_basis_carries_the_determinant_through_leading_flips():
    model = cli.BuiltModel(h=PauliSum([]), n_qubits=3, sector=np.arange(8),
                           reference=0b101, label="flips")
    assert cli._walker_basis(model)[2] == 0b101
    assert cli._walker_basis(model, 0b011)[2] == 0b011
    circuit, params = sample_circuit()  # leading flips on qubits 0 and 2
    circuit = Circuit(3, circuit.gates + (BasisFlip(1),))  # not leading: part of the rotation
    assert cli._walker_basis(model, None, circuit, params)[2] == 0
    assert cli._walker_basis(model, 0b011, circuit, params)[2] == 0b110
    with pytest.raises(ConfigError, match="qubit count"):
        cli._walker_basis(model, None, Circuit(4, []), ())


def test_nsi_bad_beta_is_a_config_error(tmp_path, capsys):
    """nsi.beta must be positive and finite: nsi and sweep stop at load with
    exit 2, before sweep trains any depth, and write nothing."""
    out = tmp_path / "out"
    for beta in ("0", "-0.5", "nan", "inf", "1e400"):
        conf = write_conf(tmp_path, SWEEP_1X2.format(out=out) + f"nsi.beta = {beta}\n")
        for command in ("nsi", "sweep"):
            assert cli.main([command, conf]) == 2
            assert "config error: nsi: beta must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("total_time, delta_tau, message", [
    ("nan", "2e-3", "qmc: total_time must be finite and non-negative"),
    ("inf", "2e-3", "qmc: total_time must be finite and non-negative"),
    ("-1", "2e-3", "qmc: total_time must be finite and non-negative"),
    ("4.0", "1e-320", "qmc: total_time must be finite and non-negative, in finitely many"),
    ("1e-3", "1e-3", "leaves 1 post-equilibration samples; statistics needs >= 16"),
])
def test_bad_total_time_is_a_config_error(tmp_path, capsys, total_time, delta_tau, message):
    """A non-finite or negative qmc.total_time, one of infinitely many steps,
    or one whose run leaves fewer post-equilibration samples than statistics
    needs, stops qmc and sweep at load with exit 2, before any model is
    built or file written."""
    out = tmp_path / "out"
    body = SWEEP_1X2.format(out=out).replace("qmc.total_time = 4.0\n", "")
    body = body.replace("qmc.delta_tau = 2e-3\n", "")
    conf = write_conf(tmp_path, body + f"qmc.total_time = {total_time}\n"
                      f"qmc.delta_tau = {delta_tau}\n")
    for command in ("qmc", "sweep"):
        assert cli.main([command, conf, "--identity-basis"]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("walkers", ["0", "-5"])
def test_fewer_than_one_initial_walker_is_a_config_error(tmp_path, capsys, walkers):
    """qmc.initial_walkers below 1 stops qmc and sweep at load with exit 2,
    before any model is built or file written."""
    out = tmp_path / "out"
    conf = write_conf(tmp_path, SWEEP_1X2.format(out=out) + f"qmc.initial_walkers = {walkers}\n")
    for command in ("qmc", "sweep"):
        assert cli.main([command, conf, "--identity-basis"]) == 2
        assert "qmc: initial_walkers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


BAD_BACKEND_CUTS = [(kind, key, value)
                    for kind, key in (("exact", "magnitude_floor"), ("sampled", "magnitude_floor"),
                                      ("sampled", "ambiguity_z"))
                    for value in ("nan", "inf", "-1")]


@pytest.mark.parametrize("kind, key, value", BAD_BACKEND_CUTS,
                         ids=[f"{k}-{key}-{v}" for k, key, v in BAD_BACKEND_CUTS])
def test_a_bad_backend_cut_stops_qmc_at_load(tmp_path, capsys, kind, key, value):
    """A NaN or infinite magnitude floor or ambiguity z drops every
    off-diagonal element, and a negative one means nothing: qmc exits 2
    before any model is built or file written."""
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out) + f"backend.kind = {kind}\n"
                      f"backend.{key} = {value}\n")
    assert cli.main(["qmc", conf, "--identity-basis"]) == 2
    assert f"backend: {key} must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_the_fewest_planned_samples_load(tmp_path):
    """15 steps of 1e-2 with no equilibration cut plan 16 samples, the
    fewest statistics accepts; 14 steps plan 15, and a cut of one half
    leaves 16 of 31 records and 15 of 30."""
    base = "model.hubbard.shape = 1x2\nqmc.delta_tau = 1e-2\n"
    for total_time, fraction, n_steps in (("0.15", "0", 15), ("0.14", "0", None),
                                          ("0.3", "0.5", 30), ("0.29", "0.5", None)):
        conf = write_conf(tmp_path, base + f"qmc.total_time = {total_time}\n"
                          f"qmc.equilibration_fraction = {fraction}\n")
        if n_steps is not None:
            assert load_config(conf).run.n_steps == n_steps
        else:
            with pytest.raises(ConfigError, match="leaves 15 post-equilibration samples"):
                load_config(conf)


def test_nsi_overflowed_bound_is_written_as_null(tmp_path):
    """At beta 1000 the dimer's Theorem-1 bound overflows a double: nsi.json
    holds null for it and parses under a reader that refuses NaN and
    Infinity."""
    out = tmp_path / "out"
    conf = write_conf(tmp_path, f"""
output.dir = {out}
model.hubbard.shape = 1x2
model.hubbard.u = 4.0
nsi.beta = 1000
""")
    assert cli.main(["nsi", conf]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    record = json.loads((out / "nsi.json").read_text(), parse_constant=refuse)
    assert record["identity"]["theorem1_bound"] is None
    assert math.isfinite(record["identity"]["s_thermal"])


# ---------------------------------------------------------------------------
# cmd_qmc
# ---------------------------------------------------------------------------

def test_qmc_identity_basis_outputs(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out))
    assert cli.main(["qmc", conf, "--identity-basis"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["identity_basis"] is True
    assert np.isfinite(summary["mean_e_mixed"])
    with open(out / "trajectory.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 2001  # 4.0 / 2e-3 steps plus the initial record
    assert records[0]["n_walkers"] == "100"


def test_qmc_diagonalizing_circuit_constant(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out))
    assert cli.main(["vqe", conf]) == 0
    conf2 = write_conf(tmp_path, BASE_1X2.format(out=out)
                       + f"circuit.path = {out / 'circuit.txt'}\n", name="q.conf")
    assert cli.main(["qmc", conf2]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["mean_e_mixed"] - E_1X2) < 1e-8
    assert summary["std_e_mixed"] < 1e-12
    assert summary["final_walkers"] == 100


def test_qmc_requires_circuit_unless_identity(tmp_path):
    conf = write_conf(tmp_path, BASE_1X2.format(out=tmp_path / "out"))
    assert cli.main(["qmc", conf]) == 2


@pytest.mark.parametrize("setting", [
    "qmc.update_interval = 0",
    "backend.shots_magnitude = -1",
    "backend.shots_sign = 0",
])
def test_qmc_out_of_range_setting_is_a_config_error(tmp_path, capsys, setting):
    conf = write_conf(tmp_path, BASE_1X2.format(out=tmp_path / "out")
                      + "backend.kind = sampled\n" + setting + "\n")
    assert cli.main(["qmc", conf, "--identity-basis"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ed", "vqe", "nsi", "qmc", "sweep"])
def test_sampled_only_backend_keys_under_the_exact_backend_fail_at_load(
        tmp_path, capsys, command):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, SWEEP_1X2.format(out=out) + "backend.shots_sign = 4000\n")
    assert cli.main([command, conf, "--identity-basis"]) == 2
    assert ("not valid for exact backend: ['backend.shots_sign']"
            in capsys.readouterr().err)
    assert not out.exists()


def test_negative_seed_in_the_file_is_a_config_error(tmp_path, capsys):
    body = BASE_1X2.format(out=tmp_path / "out").replace("seed = 3", "seed = -3")
    assert cli.main(["qmc", write_conf(tmp_path, body), "--identity-basis"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    conf = write_conf(tmp_path, BASE_1X2.format(out=tmp_path / "out"))
    assert cli.main(["qmc", conf, "--identity-basis", "--seed", "-3"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_qmc_reference_names_a_model_determinant_in_every_basis(tmp_path):
    """qmc.reference set to the model reference gives the default run in
    the trained basis too, not a run from the rotated vacuum."""
    out = tmp_path / "out"
    assert cli.main(["vqe", write_conf(tmp_path, BASE_1X2.format(out=out))]) == 0
    reference = json.loads((out / "vqe.json").read_text())["reference"]
    body = BASE_1X2.format(out=out) + f"circuit.path = {out / 'circuit.txt'}\n"
    assert cli.main(["qmc", write_conf(tmp_path, body, name="a.conf")]) == 0
    default = (out / "trajectory.csv").read_bytes()
    keyed = write_conf(tmp_path, body + f"qmc.reference = {reference}\n", name="b.conf")
    assert cli.main(["qmc", keyed]) == 0
    assert (out / "trajectory.csv").read_bytes() == default
    assert json.loads((out / "summary.json").read_text())["reference"] == 0


@pytest.mark.parametrize("command", ["qmc", "nsi"])
def test_a_reference_outside_the_sector_is_a_config_error(tmp_path, capsys, command):
    """Walker columns and the NSI blocks run over the model's sector, so
    qmc.reference or nsi.phi0 = 0b0001 (one electron, outside the 1x2
    model's one-up, one-down sector) is a config error, in a circuit basis
    too."""
    out = tmp_path / "out"
    assert cli.main(["vqe", write_conf(tmp_path, BASE_1X2.format(out=out))]) == 0
    key = "qmc.reference" if command == "qmc" else "nsi.phi0"
    body = BASE_1X2.format(out=out) + f"{key} = 1\n"
    assert cli.main([command, write_conf(tmp_path, body, name="a.conf"),
                     "--identity-basis"]) == 2
    assert "outside the model's particle-number sector" in capsys.readouterr().err
    body += f"circuit.path = {out / 'circuit.txt'}\n"
    assert cli.main([command, write_conf(tmp_path, body, name="b.conf")]) == 2
    assert "outside the model's particle-number sector" in capsys.readouterr().err
    assert not (out / "nsi.json").exists() and not (out / "trajectory.csv").exists()


def test_qmc_circuit_that_leaves_the_sector_is_a_model_error(tmp_path, capsys):
    """A lone X0 Y1 rotation sends |00> to |11> on modes 0 and 1, so it
    does not keep the 1x2 model's sector: exit 3, naming the run."""
    out = tmp_path / "out"
    out.mkdir()
    path = out / "leaky.txt"
    xy = PauliRotation(PauliWord(4, 0b0011, 0b0010), angle=0.3)
    path.write_text(serialize_circuit(Circuit(4, [xy]), np.zeros(0)))
    conf = write_conf(tmp_path, BASE_1X2.format(out=out) + f"circuit.path = {path}\n")
    assert cli.main(["qmc", conf]) == 3
    err = capsys.readouterr().err
    assert "model error" in err and "gate run 0 (gates 0-0, X mask 0x3)" in err
    assert not (out / "trajectory.csv").exists()
    # nsi builds its transformed block over the same walker sector
    assert cli.main(["nsi", conf]) == 3
    assert "gate run 0 (gates 0-0, X mask 0x3)" in capsys.readouterr().err
    assert not (out / "nsi.json").exists()


def test_qmc_circuit_qubit_mismatch(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    wrong = out / "wrong.txt"
    wrong.write_text(serialize_circuit(Circuit(6, []), np.zeros(0)))
    conf = write_conf(tmp_path, BASE_1X2.format(out=out)
                      + f"circuit.path = {wrong}\n")
    assert cli.main(["qmc", conf]) == 2


def test_qmc_byte_identical_reruns(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out))
    assert cli.main(["qmc", conf, "--identity-basis"]) == 0
    first_traj = (out / "trajectory.csv").read_bytes()
    first_sum = (out / "summary.json").read_bytes()
    assert cli.main(["qmc", conf, "--identity-basis"]) == 0
    assert (out / "trajectory.csv").read_bytes() == first_traj
    assert (out / "summary.json").read_bytes() == first_sum


def test_qmc_seed_flag_changes_output(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out))
    assert cli.main(["qmc", conf, "--identity-basis"]) == 0
    first = (out / "trajectory.csv").read_bytes()
    assert cli.main(["qmc", conf, "--identity-basis", "--seed", "99"]) == 0
    assert (out / "trajectory.csv").read_bytes() != first


def test_qmc_sampled_backend_runs(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, f"""
seed = 3
output.dir = {out}
model.hubbard.shape = 1x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
qmc.total_time = 1.0
qmc.delta_tau = 2e-3
qmc.threshold = 400
backend.shots_magnitude = 20000
backend.shots_sign = 4000
""")
    assert cli.main(["qmc", conf, "--identity-basis", "--backend", "sampled"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["backend.kind"] == "sampled"
    assert np.isfinite(summary["mean_e_mixed"])


# ---------------------------------------------------------------------------
# cmd_sweep
# ---------------------------------------------------------------------------

SWEEP_1X2 = BASE_1X2 + "sweep.depths = 0,2,4\n"


def test_sweep_rows_and_depth_zero(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, SWEEP_1X2.format(out=out))
    assert cli.main(["sweep", conf]) == 0
    record = json.loads((out / "sweep.json").read_text())
    rows = record["rows"]
    assert [r["depth"] for r in rows] == [0, 2, 4]
    assert all(r["error"] == "" for r in rows)

    # depth-0 row is the identity-basis FCIQMC run with the same base seed
    qdir = tmp_path / "qout"
    qconf = write_conf(tmp_path, BASE_1X2.format(out=qdir), name="q.conf")
    assert cli.main(["qmc", qconf, "--identity-basis"]) == 0
    summary = json.loads((qdir / "summary.json").read_text())
    assert rows[0]["e_qmc_mean"] == summary["mean_e_mixed"]
    assert rows[0]["e_qmc_std"] == summary["std_e_mixed"]
    assert rows[0]["e_vqe"] == 0.0  # reference diagonal on the open dimer


def test_each_sweep_row_runs_the_projector_at_its_derived_seed(tmp_path):
    """Row k runs at seed + k: a second depth-0 row is the identity-basis
    qmc run at the next seed (BASE_1X2 has seed 3)."""
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out) + "sweep.depths = 0, 0\n")
    assert cli.main(["sweep", conf]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    qdir = tmp_path / "qout"
    qconf = write_conf(tmp_path, BASE_1X2.format(out=qdir), name="q.conf")
    assert cli.main(["qmc", qconf, "--identity-basis", "--seed", "4"]) == 0
    summary = json.loads((qdir / "summary.json").read_text())
    assert rows[1]["e_qmc_mean"] == summary["mean_e_mixed"]
    assert rows[1]["e_qmc_mean"] != rows[0]["e_qmc_mean"]


def test_sweep_std_non_increasing(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, SWEEP_1X2.format(out=out))
    assert cli.main(["sweep", conf]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    stds = [r["e_qmc_std"] for r in rows]
    inversions = sum(1 for a, b in zip(stds, stds[1:]) if b > a)
    assert inversions <= 1
    assert stds[-1] < stds[0]


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "out"
    conf = write_conf(tmp_path, SWEEP_1X2.format(out=out))
    assert cli.main(["sweep", conf]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "depth,e_vqe,e_qmc_mean,e_qmc_std,nsi,theorem1_bound,error"
    assert len(lines) == 4
    # numeric cells parse back
    cells = lines[1].split(",")
    assert int(cells[0]) == 0
    float(cells[1]), float(cells[4]), float(cells[5])


def test_sweep_partial_failure_continues(tmp_path, monkeypatch):
    from qcfciqmc.vqa import VqaError

    real = cli._train_ansatz

    def flaky(cfg, model, depth=None, seed=None):
        if depth == 2:
            raise VqaError("injected failure")
        return real(cfg, model, depth=depth, seed=seed)

    monkeypatch.setattr(cli, "_train_ansatz", flaky)
    out = tmp_path / "out"
    cfg = load_config(write_conf(tmp_path, SWEEP_1X2.format(out=out)))
    record = cmd_sweep(cfg)
    rows = record["rows"]
    assert rows[1]["error"] == "injected failure"
    assert rows[1]["e_vqe"] is None
    assert rows[0]["error"] == "" and rows[2]["error"] == ""
    text = (out / "sweep.csv").read_text().splitlines()
    assert text[2].startswith("2,,,,,")


def test_sweep_row_linalg_failure_goes_into_the_row(tmp_path, monkeypatch):
    real = cli.transformed_dense

    def failing(h, u, params=(), basis=None):
        if u.gates:  # the trained rows, not the identity row
            raise np.linalg.LinAlgError("injected eigh failure")
        return real(h, u, params, basis=basis)

    monkeypatch.setattr(cli, "transformed_dense", failing)
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out) + "sweep.depths = 0, 2\n")
    assert cli.main(["sweep", conf]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert rows[0]["error"] == "" and rows[0]["nsi"] is not None
    assert rows[1]["error"] == "injected eigh failure"
    assert rows[1]["nsi"] is None and rows[1]["e_qmc_mean"] is None
    assert (out / "sweep.csv").read_text().splitlines()[2].endswith(",injected eigh failure")


def test_sweep_hv_ansatz_on_an_fcidump_model_fails_before_the_first_row(tmp_path, capsys):
    """The default hv ansatz needs a Hubbard lattice: with a trained depth
    on an FCIDUMP model, sweep stops with exit 2 before its first row, as
    vqe does; a depth-0 sweep trains nothing and runs."""
    path = tmp_path / "dimer.fcidump"
    path.write_text(serialize_fcidump(lattice_fcidump(HubbardSpec((1, 2), u=4.0))))
    out = tmp_path / "out"
    body = (f"output.dir = {out}\nmodel.fcidump.path = {path}\n"
            "qmc.total_time = 1.0\nqmc.threshold = 400\n")
    conf = write_conf(tmp_path, body + "sweep.depths = 0, 1\n")
    for command in ("sweep", "vqe"):
        assert cli.main([command, conf]) == 2
        assert "hv ansatz requires a hubbard model" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["sweep", write_conf(tmp_path, body + "sweep.depths = 0\n",
                                         name="zero.conf")]) == 0
    assert json.loads((out / "sweep.json").read_text())["rows"][0]["error"] == ""


def test_sweep_negative_depth_is_a_config_error(tmp_path, capsys):
    """A negative depth is no basis: sweep stops at load with exit 2, before
    its first row, and writes nothing."""
    out = tmp_path / "out"
    conf = write_conf(tmp_path, BASE_1X2.format(out=out) + "sweep.depths = 0,-1\n")
    assert cli.main(["sweep", conf]) == 2
    assert "config error: sweep.depths must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_depths(tmp_path):
    conf = write_conf(tmp_path, BASE_1X2.format(out=tmp_path / "out"))
    assert cli.main(["sweep", conf]) == 2

"""Cross-commit stream guard: pinned trajectory digests on 2x2 Hubbard.

The determinism tests compare two runs of the same code.  These pins compare
a run with the bytes an earlier version of the package wrote, so a refactor
that moves a random stream, the order in which elements are measured or the
rounding of an estimator fails here even when every run still reproduces
itself.

The pins were recorded with numpy 2.4 on Python 3.11.  A numpy upgrade that
changes the `Generator` streams (Philox, binomial or multinomial) moves these
digests without any change in the package; then re-pin them and log the old
and new values in CHANGES.md.
"""

import hashlib

import numpy as np

from qcfciqmc.exactdiag import number_sector_indices
from qcfciqmc.fciqmc import RunConfig, run, trajectory_to_csv
from qcfciqmc.matelem import SampledBackend
from qcfciqmc.operators import HubbardSpec, build_hubbard, jordan_wigner
from qcfciqmc.simulator import Circuit
from qcfciqmc.vqa import hubbard_hv_generator_groups, layered_ansatz, lowest_diagonal_reference

IDENTITY_EXACT_SHA256 = "4f4bdbc00145f781c2f25be8782f904e36882847372ffbcef909d1c0e76e47fa"
LAYERED_SAMPLED_SHA256 = "58b06ee584749f73a64809db9bf9ce334994ad38d3e232c9aded09df8494d7c2"


def hubbard2x2():
    spec = HubbardSpec((2, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    ref = lowest_diagonal_reference(h, number_sector_indices(spec.n_qubits, n_up=2, n_dn=2))
    return spec, h, ref


def digest(traj) -> str:
    return hashlib.sha256(trajectory_to_csv(traj).encode()).hexdigest()


def test_identity_exact_trajectory_pinned():
    spec, h, ref = hubbard2x2()
    cfg = RunConfig(delta_tau=0.01, total_time=3.0, initial_walkers=500, seed=5,
                    damping=0.1, threshold=2000)
    traj = run(h, Circuit(spec.n_qubits, []), (), cfg, phi0=ref)
    assert len(traj.records) == 301
    assert digest(traj) == IDENTITY_EXACT_SHA256


def test_layered_sampled_trajectory_pinned():
    spec, h, ref = hubbard2x2()
    circuit = layered_ansatz(hubbard_hv_generator_groups(spec), 1, ref, spec.n_qubits)
    params = 0.03 * (-1.0) ** np.arange(circuit.n_slots)  # fixed angles
    cfg = RunConfig(delta_tau=0.01, total_time=0.1, initial_walkers=2000, seed=7)
    traj = run(h, circuit, params, cfg, backend=SampledBackend(), phi0=0)
    assert len(traj.records) == 11
    assert digest(traj) == LAYERED_SAMPLED_SHA256

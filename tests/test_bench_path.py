"""The benchmark's traced command path runs against this package.

`bench/spans.py` wraps package functions by name (its `WRAPPED` table) and
reads the element sources it sees, and `bench/child.py` runs the CLI under
those wrappers.  A rename or removal in `src/` can break that path without
failing any other test, so these tests run one traced sampled `qmc` command
and one traced `vqe` command the way `bench/run.py --trace 1` does, each in
a fresh process, and read their span files back."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

TINY_SAMPLED_2X2 = """\
seed = 1
model.hubbard.shape = 2x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
qmc.delta_tau = 1e-2
qmc.total_time = 0.2
qmc.equilibration_fraction = 0
qmc.initial_walkers = 200
backend.shots_magnitude = 20000
backend.shots_sign = 2000
"""


TINY_VQE_2X2 = """\
seed = 1
model.hubbard.shape = 2x2
model.hubbard.t = 1.0
model.hubbard.u = 4.0
ansatz.kind = hv
ansatz.layers = 1
vqe.gtol = 0
vqe.max_iterations = 2
"""


def traced(tmp_path, monkeypatch, conf_text, *args) -> dict:
    """Run one CLI command under the span wrappers in a fresh process,
    assert that it exits 0, and return its summarized spans."""
    conf = tmp_path / "exp.conf"
    conf.write_text(conf_text)
    spans_file = tmp_path / "exp.spans.npz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "cli", "--spans", str(spans_file),
         args[0], str(conf), *args[1:], "--output-dir", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans.summarize(spans_file)


def test_traced_sampled_qmc_reports_rows_measured(tmp_path, monkeypatch):
    summary = traced(tmp_path, monkeypatch, TINY_SAMPLED_2X2, "qmc", "--identity-basis",
                     "--backend", "sampled")
    assert summary["counts"]["matelem.rows_measured"] > 0
    assert summary["spans"]["matelem.row_magnitudes"]["calls"] > 0


def test_traced_vqe_reports_the_minimizer(tmp_path, monkeypatch):
    summary = traced(tmp_path, monkeypatch, TINY_VQE_2X2, "vqe")
    assert summary["spans"]["vqa.vqe_minimize"]["calls"] == 1

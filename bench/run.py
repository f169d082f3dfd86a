#!/usr/bin/env python3
"""qcfciqmc benchmark: three single-client, closed-loop workloads over the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qcfciqmc source tree; it imports the package from
`src/`.  One run:

1. set-up: a fresh process imports the package and writes the workload's
   inputs from the seed; done SETUP_REPEATS times, `setup_s` is the median;
2. timed loop: iterations of the workload's CLI commands, each command in a
   fresh `python bench/child.py cli ...` process started only after the
   previous one has exited, until the next iteration would pass S seconds;
3. untimed checks: the outputs' sha256 digests must repeat between
   iterations and between runs of the same source and seed, and each
   workload checks its outputs against exact references.

With --trace 1 the first iteration runs untraced and the rest run with the
span wrappers of `spans.py`; the per-layer metrics are medians over the
traced iterations and `trace.overhead_s` is traced minus untraced wall time.

The full record (run header, per-iteration figures, digests, checks) goes to
`.bench_runs/results/`; stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  An operation is one CLI
command, one output check or one digest comparison; `failed` counts non-zero
exits, failed checks and digests that did not repeat.  Exit code 2, with no
result line, when there is no source tree.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_runs"
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 120.0

# per-layer metrics: name -> (unit, better); every traced run reports all
PER_LAYER = {}
for _name in ("fciqmc.run", "fciqmc.spawn_step", "fciqmc.death_clone_step",
              "fciqmc.annihilate", "fciqmc.mixed_energy", "fciqmc.statistics",
              "fciqmc.trajectory_to_csv", "matelem.get_element", "matelem.signed_row",
              "matelem.row_magnitudes", "matelem.element_sign", "matelem.transformed_column",
              "vqa.gradient", "vqa.circuit_energy", "simulator.apply_circuit",
              "simulator.amplitude_vector", "simulator.expectation", "operators.apply_word",
              "operators.apply_pauli_sum", "operators.to_dense", "nsi.transformed_dense",
              "nsi.nsi_report", "exactdiag.diagonalize", "cli.build_model"):
    PER_LAYER[f"{_name}.s"] = ("s", "lower")
for _name in ("fciqmc.spawn_step", "matelem.get_element", "matelem.row_magnitudes",
              "matelem.element_sign", "matelem.diagonal_element", "matelem.transformed_column",
              "vqa.gradient", "vqa.circuit_energy", "simulator.apply_circuit",
              "operators.apply_word", "operators.apply_pauli_sum", "exactdiag.diagonalize"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
PER_LAYER.update({
    "fciqmc.walker_steps": ("count", "higher"),
    "fciqmc.spawned": ("count", "lower"),
    "fciqmc.annihilated": ("count", "lower"),
    "fciqmc.annihilation_ratio": ("ratio", "lower"),
    "fciqmc.warnings": ("count", "lower"),
    "fciqmc.t_to_1mha_s": ("s", "lower"),
    "matelem.rows_measured": ("count", "lower"),
    "matelem.draws_per_row": ("ratio", "lower"),
    "matelem.shots": ("count", "lower"),
    "matelem.sign_ambiguous": ("count", "lower"),
    "matelem.cache_hit_ratio": ("ratio", "higher"),
    "vqa.line_search_accept_ratio": ("ratio", "higher"),
    "operators.apply_word.bytes_computed": ("B", "lower"),
    "exactdiag.diagonalize.max_dim": ("count", "lower"),
})
for _layer in ("cli", "operators", "simulator", "vqa", "exactdiag", "nsi", "matelem", "fciqmc"):
    PER_LAYER[f"layer.{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"layer.{_layer}.incl_s"] = ("s", "lower")
PER_LAYER.update({
    "share.fciqmc_self": ("ratio", "lower"),
    "share.matelem_incl": ("ratio", "lower"),
    "share.vqa_nsi_incl": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

# end-to-end metrics: name -> unit; all are medians over untraced iterations
END_TO_END = {"setup_s": "s", "wall_s": "s", "core_iters_per_s": "1/s", "peak_rss_mb": "MB"}
# further figures printed for the workloads that have them
FIGURE_UNITS = {**END_TO_END, "qmc_steps_per_s": "1/s", "walker_steps_per_s": "1/s",
                "t_to_1mha_s": "s", "vqe_iters_per_s": "1/s", "error_rate": "ratio"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """sha256 over the package and benchmark sources, standing in for a
    commit id (the benchmark generates the inputs)."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_header(seed: int) -> dict:
    import numpy as np

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "workload_seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, cwd: Path, log: Path) -> dict:
    """One fresh child process, waited for; returns exit code, wall seconds
    and peak resident memory."""
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args], cwd=cwd,
                                env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "s": seconds, "rss_mb": usage.ru_maxrss / 1024.0}


class Ledger:
    """Attempted and failed operations with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def setup(w, seed: int, d: Path, ledger: Ledger) -> list:
    times = []
    digests = None
    for k in range(SETUP_REPEATS):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        res = run_child(["setup", w.name, str(seed), str(d)], ROOT, WORK / "setup.log")
        if res["code"] != 0:
            raise SystemExit(f"set-up failed with exit code {res['code']}; "
                             f"see {WORK / 'setup.log'}")
        times.append(res["s"])
        now = {p.name: _sha256(p) for p in sorted(d.iterdir())}
        if digests is None:
            digests = now
        else:
            ledger.record(f"setup {k} inputs repeat", now == digests, "inputs differ")
    return times


def iteration(w, d: Path, index: int, traced: bool, ledger: Ledger) -> dict:
    shutil.rmtree(d / "out", ignore_errors=True)
    logs = d / "logs"
    logs.mkdir(exist_ok=True)
    it = {"index": index, "traced": traced, "secs": {}, "rss_mb": 0.0, "ok": True}
    span_files = []
    for label, args in w.commands:
        pre = []
        if traced:
            span_files.append(logs / f"{index}-{label}.spans.npz")
            pre = ["--spans", str(span_files[-1])]
        res = run_child(["cli", *pre, *args], d, logs / f"{index}-{label}.log")
        it["secs"][label] = res["s"]
        it["rss_mb"] = max(it["rss_mb"], res["rss_mb"])
        ok = ledger.record(f"iteration {index} {label}", res["code"] == 0,
                           f"exit code {res['code']}, see {logs / f'{index}-{label}.log'}")
        if not ok:
            it["ok"] = False
            return it
    it["wall_s"] = sum(it["secs"].values())
    it["digests"] = {f: _sha256(d / f) for f in w.digest_files}
    it["figures"] = w.figures(d, it["secs"])
    if traced:
        it["trace"] = [spans.summarize(f) for f in span_files]
    return it


def layer_metrics(traces: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration (its commands summed)."""
    span_tot: dict = {}
    layers: dict = {}
    counts: dict = {}
    for t in traces:
        for name, v in t["spans"].items():
            acc = span_tot.setdefault(name, {"calls": 0, "self_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for name, v in t["layers"].items():
            acc = layers.setdefault(name, {"self_s": 0.0, "incl_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for name, v in t["counts"].items():
            counts[name] = max(counts.get(name, 0), v) if name.endswith(".max_dim") \
                else counts.get(name, 0) + v
    out = {}
    for key in PER_LAYER:
        base, _, kind = key.rpartition(".")
        if kind == "s" and base in span_tot:
            out[key] = span_tot[base]["self_s"]
        elif kind == "calls":
            out[key] = span_tot.get(base, {}).get("calls", 0)
    for layer, v in layers.items():
        out[f"layer.{layer}.self_s"] = v["self_s"]
        out[f"layer.{layer}.incl_s"] = v["incl_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    calls = {k: v["calls"] for k, v in span_tot.items()}
    rows = counts.get("matelem.rows_measured", 0)
    hits, misses = counts.get("matelem.cache_hits", 0), counts.get("matelem.cache_misses", 0)
    searches = calls.get("vqa.circuit_energy", 0) - calls.get("vqa.vqe_minimize", 0)
    out.update({
        "fciqmc.walker_steps": counts.get("fciqmc.walker_steps", 0),
        "fciqmc.spawned": counts.get("fciqmc.spawned", 0),
        "fciqmc.annihilated": counts.get("fciqmc.annihilated", 0),
        "fciqmc.annihilation_ratio": ratio(counts.get("fciqmc.annihilated", 0),
                                           counts.get("fciqmc.spawned", 0)),
        "fciqmc.warnings": counts.get("fciqmc.warnings", 0),
        "matelem.rows_measured": rows,
        "matelem.draws_per_row": ratio(calls.get("matelem.row_magnitudes", 0), rows),
        "matelem.shots": counts.get("matelem.shots", 0),
        "matelem.sign_ambiguous": counts.get(
            "matelem.element_sign.raised.SignAmbiguityError", 0),
        "matelem.cache_hit_ratio": ratio(hits, hits + misses),
        "vqa.line_search_accept_ratio": ratio(calls.get("vqa.gradient", 0), searches),
        "operators.apply_word.bytes_computed": counts.get("operators.apply_word.bytes_computed", 0),
        "exactdiag.diagonalize.max_dim": counts.get("exactdiag.diagonalize.max_dim", 0),
        "share.fciqmc_self": ratio(layers["fciqmc"]["self_s"], wall_s),
        "share.matelem_incl": ratio(layers["matelem"]["incl_s"], wall_s),
        "share.vqa_nsi_incl": ratio(layers["vqa"]["incl_s"] + layers["nsi"]["incl_s"], wall_s),
        "trace.wall_s": wall_s,
    })
    return out


def compare_digests(w, seed: int, its: list, ledger: Ledger, header: dict) -> dict:
    """Digests must repeat between iterations and between runs of the same
    source and seed; the runs' digests are kept in .bench_runs/digests.json."""
    done = [it for it in its if it["ok"]]
    if not done:
        return {}
    first = done[0]["digests"]
    for it in done[1:]:
        for f, digest in it["digests"].items():
            ledger.record(f"{f} repeats in iteration {it['index']}", digest == first[f],
                          f"{digest} != {first[f]}")
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    known = store.setdefault(header["source_sha256"], {}).setdefault(f"{w.name}/{seed}", {})
    for f, digest in first.items():
        if f in known:
            ledger.record(f"{f} repeats across runs", digest == known[f],
                          f"{digest} != {known[f]} from an earlier run")
        else:
            known[f] = digest
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return first


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "qcfciqmc" / "cli.py").is_file():
        print(f"no qcfciqmc source tree under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    d = WORK / f"{w.name}-seed{args.seed}"
    ledger = Ledger()

    setup_times = setup(w, args.seed, d, ledger)
    its = []
    t_begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(its) >= 1
        t0 = time.perf_counter()
        its.append(iteration(w, d, len(its), traced, ledger))
        last = time.perf_counter() - t0
        if not its[-1]["ok"]:
            break
        if args.trace and not traced:
            continue  # a traced run measures at least one traced iteration
        if time.perf_counter() - t_begin + last > args.seconds:
            break
    measured_s = time.perf_counter() - t_begin

    header = run_header(args.seed)
    digests = compare_digests(w, args.seed, its, ledger, header)
    checks = []
    if its[-1]["ok"]:
        sys.path.insert(0, str(ROOT / "src"))
        for name, ok, detail in w.check(d, args.seed):
            ok = bool(ok)
            ledger.record(name, ok, detail)
            checks.append({"name": name, "ok": ok, "detail": detail})

    plain = [it for it in its if it["ok"] and not it["traced"]]
    traced = [it for it in its if it["ok"] and it["traced"]]
    figures = {
        "setup_s": median(setup_times),
        "wall_s": median([it["wall_s"] for it in plain]),
        "peak_rss_mb": median([it["rss_mb"] for it in plain]),
    }
    for key in sorted({k for it in plain for k in it["figures"]}):
        figures[key] = median([it["figures"][key] for it in plain])
    figures["error_rate"] = len(ledger.failures) / ledger.attempted if ledger.attempted else 0.0

    if args.trace:
        per_it = [layer_metrics(it["trace"], it["wall_s"]) for it in traced]
        layer = {k: median([m.get(k, 0) for m in per_it]) for k in PER_LAYER}
        layer["fciqmc.t_to_1mha_s"] = figures.get("t_to_1mha_s", 0.0)
        if per_it and plain:
            layer["trace.overhead_s"] = layer["trace.wall_s"] - figures["wall_s"]
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        # after a failed command a metric can be missing; it then reads null
        metrics = {k: {"value": figures.get(k), "unit": u} for k, u in END_TO_END.items()}

    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}
    record = {"header": header, "workload": w.name, "why": w.why, "trace": args.trace,
              "seconds": args.seconds, "measured_s": measured_s, "setup_times_s": setup_times,
              "iterations": [{k: v for k, v in it.items() if k != "trace"} for it in its],
              "figures": figures, "digests": digests, "checks": checks,
              "failures": ledger.failures, "result": result}
    (WORK / "results").mkdir(exist_ok=True)
    out = WORK / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {w.name} seed {args.seed}: {w.why}")
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    print(f"# {len(plain)} untraced and {len(traced)} traced iterations in {measured_s:.1f} s")
    for c in checks:
        print(f"# check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for f in ledger.failures:
        print(f"# failed: {f}")
    for k, v in figures.items():
        print(f"# {k} = {v!r} {FIGURE_UNITS[k]}")
    if args.trace:
        for k, m in metrics.items():
            print(f"# {k} = {m['value']!r} {m['unit']}")
    print(f"# record: {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

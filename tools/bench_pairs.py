"""Parent/change benchmark pairs and the per-call gradient time, as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_11.json \
        [--workload NAME ...] [--pairs N] [--seed S]

DIR is a git checkout of one commit that holds `bench/run.py` and
`src/qcfciqmc`.  The workloads, the run length and each end-to-end metric's
direction and bound are read from the BENCHMARK.json beside this tool.  Each
pair runs `bench/run.py --trace 0` once in each tree, one after the other,
and the order alternates from pair to pair so that a slow drift of the
machine falls on both sides alike.  The runs are never concurrent.

After the pairs come two timers, each run for TIMER_ROUNDS rounds; a round
runs the timer once in each tree, each time in a fresh process, the order
alternating from round to round as in the pairs.  The gradient timer times
the gradient the CLI's VQE runs, on the 3-layer 2x2 layered ansatz (244
gates, 18 slots): one circuit layout over the 36-dim walker sector, then per
call `CircuitLayout.compile`, U|0> and the reverse pass
`vqa._adjoint_gradient`; a process reports the median of its calls, and of
the compile and of the reverse pass alone, and the rounds are keyed on the
median of the calls.  The engine timer times one engine step: `fciqmc.run`
over an `ElementSource` built on the 36-dim 2x2 walker sector, identity
basis, exact backend, with the run settings and seed 1 of
`qmc_identity_2x2` (6000 steps, about 7700 walkers once the shift holds
them); a process runs it ENGINE_RUNS times and reports the minimum and the
median of seconds per step, and the rounds are keyed on the minimum, which
a slow spell of the shared machine moves less.  Per timer and side, the
record keeps every round's report and the median and quartiles of the
rounds' key, and the number of rounds that side was faster in.

One invocation is one run: its protocol, every pair's end-to-end metrics and
`failed` counts, a per-workload summary and the two timers' rounds.  The record
holds a header (CPUs, RAM, Python, numpy, BLAS, the trees' commits) and the
list of runs; when `--out` already holds a record of the same two commits,
the run is appended to it, so every run made stays in the record.

The summary gives, per metric, each side's median and quartiles, the number
of pairs in which the change was better, and a verdict against the metric's
bound: `worse_by` is the relative gap of the medians in the metric's worse
direction, and the verdict is "unresolved" when the parent's interquartile
range, relative to its median, is wider than the bound and not every change
run reads better than every parent run, else "inside" or "outside" as
`worse_by` is or is not within it.  `pair_ratio` gives the median and
quartiles of change / parent within each pair: the two runs of a pair are
next to each other in time, so a slow spell of the machine that widens
both sides' quartiles moves the ratio much less.

Imports from a tree with valid bytecode under `src/` start faster than
from one without, which shows as a `setup_s` gap between identical trees.
The header records, per tree, whether its `src/` holds a `__pycache__`,
and the `PYTHONDONTWRITEBYTECODE` setting the runs inherit; trees that
differ in the first are refused.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
GRADIENT_CALLS = 50

GRADIENT_TIMER = f"""
import json, time
import numpy as np
from qcfciqmc.exactdiag import number_sector_indices
from qcfciqmc.operators import HubbardSpec, build_hubbard, jordan_wigner
from qcfciqmc.simulator import circuit_layout
from qcfciqmc.vqa import (_adjoint_gradient, _reference_state, hubbard_hv_generator_groups,
                          layered_ansatz, lowest_diagonal_reference)
spec = HubbardSpec((2, 2), t=1.0, u=4.0)
h = jordan_wigner(build_hubbard(spec))
sector = number_sector_indices(spec.n_qubits, n_up=2, n_dn=2)
ref = lowest_diagonal_reference(h, sector)
c = layered_ansatz(hubbard_hv_generator_groups(spec), 3, ref, spec.n_qubits)
params = 0.2 * np.random.default_rng(1).standard_normal(c.n_slots)
walkers = np.sort(sector ^ ref)  # the walker sector the CLI trains over
layout = circuit_layout(c, walkers)

def call():
    t0 = time.perf_counter()
    compiled = layout.compile(params)
    t1 = time.perf_counter()
    psi = _reference_state(compiled)
    t2 = time.perf_counter()
    _adjoint_gradient(compiled, h, psi)
    t3 = time.perf_counter()
    return t3 - t0, t1 - t0, t3 - t2

first = call()[0]
times, compile_, reverse = zip(*(call() for _ in range({GRADIENT_CALLS})))
print(json.dumps({{"gates": len(c.gates), "slots": c.n_slots, "basis_dim": len(walkers),
                  "first_call_s": first, "median_s": float(np.median(times)),
                  "min_s": min(times), "compile_median_s": float(np.median(compile_)),
                  "reverse_median_s": float(np.median(reverse)), "calls": len(times)}}))
"""

ENGINE_RUNS = 7

TIMER_ROUNDS = 10

ENGINE_TIMER = f"""
import json, time
import numpy as np
from qcfciqmc.exactdiag import number_sector_indices
from qcfciqmc.fciqmc import RunConfig, run
from qcfciqmc.matelem import ElementSource, ExactBackend
from qcfciqmc.operators import HubbardSpec, build_hubbard, jordan_wigner
from qcfciqmc.simulator import Circuit
from qcfciqmc.vqa import lowest_diagonal_reference
spec = HubbardSpec((2, 2), t=1.0, u=4.0)
h = jordan_wigner(build_hubbard(spec))
sector = number_sector_indices(spec.n_qubits, n_up=2, n_dn=2)
ref = lowest_diagonal_reference(h, sector)
circuit = Circuit(spec.n_qubits, [])
cfg = RunConfig(delta_tau=1e-2, total_time=60.0, initial_walkers=6000, threshold=5000,
                damping=0.5, seed=1)  # qmc_identity_2x2 at seed 1

def one_run():
    src = ElementSource(h, circuit, (), backend=ExactBackend(), seed=cfg.seed, basis=sector)
    t0 = time.perf_counter()
    traj = run(src, cfg, phi0=int(ref))
    return (time.perf_counter() - t0) / cfg.n_steps, traj.records[-1].n_walkers

per_step, walkers = zip(*(one_run() for _ in range({ENGINE_RUNS})))
print(json.dumps({{"basis_dim": len(sector), "steps": cfg.n_steps,
                  "final_walkers": walkers[0], "runs": len(per_step),
                  "median_s_per_step": float(np.median(per_step)),
                  "min_s_per_step": min(per_step)}}))
"""


def child_env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit(tree: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def has_bytecode(tree: Path) -> bool:
    return any((tree / "src").rglob("__pycache__"))


def header(parent: Path, change: Path) -> dict:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_gb": round(ram / 2**30, 1),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "parent_commit": git_commit(parent),
        "change_commit": git_commit(change),
        "parent_src_bytecode": has_bytecode(parent),
        "change_src_bytecode": has_bytecode(change),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    """One `bench/run.py` run in `tree`; its result line and end-to-end metrics."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=tree, env=child_env(tree), capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def timed(tree: Path, script: str) -> dict:
    """The JSON line that `script` prints, run in a fresh process on `tree`."""
    out = subprocess.run([sys.executable, "-c", script],
                         env=child_env(tree), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def timer_rounds(trees: dict, script: str, key: str) -> dict:
    """TIMER_ROUNDS alternating rounds of `script` in fresh processes; per
    side, every round's report, the median and quartiles of the rounds'
    `key` and the rounds in which that side's `key` was the lower."""
    rounds = []
    for k in range(TIMER_ROUNDS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        rounds.append({side: timed(trees[side], script) for side in order})
    times = {side: np.array([r[side][key] for r in rounds]) for side in trees}
    out = {"key": key, "order": "alternating, parent first in round 0"}
    for side, other in (("parent", "change"), ("change", "parent")):
        out[side] = {"median": float(np.median(times[side])),
                     "quartiles": np.percentile(times[side], [25, 75]).tolist(),
                     "rounds_won": f"{int((times[side] < times[other]).sum())} of {TIMER_ROUNDS}",
                     "rounds": [r[side] for r in rounds]}
    return out


def summarize(pairs: list) -> dict:
    out = {"failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}}
    for metric in BENCHMARK["end_to_end"]:
        better, bound = metric["better"], metric["bound"]
        par = np.array([p["parent"]["metrics"][metric["name"]] for p in pairs], dtype=float)
        chg = np.array([p["change"]["metrics"][metric["name"]] for p in pairs], dtype=float)
        wins = chg < par if better == "lower" else chg > par
        q1, q3 = np.percentile(par, [25, 75])
        med_par, med_chg = float(np.median(par)), float(np.median(chg))
        worse_by = (med_chg - med_par if better == "lower" else med_par - med_chg) / med_par
        ratio = chg / par
        all_better = chg.max() < par.min() if better == "lower" else chg.min() > par.max()
        if (q3 - q1) / med_par > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "inside" if worse_by <= bound else "outside"
        out[metric["name"]] = {
            "better": better,
            "parent_median": med_par,
            "change_median": med_chg,
            "parent_quartiles": [float(q1), float(q3)],
            "change_quartiles": np.percentile(chg, [25, 75]).tolist(),
            "change_over_parent": med_chg / med_par,
            "parent_iqr": float(q3 - q1),
            "change_better_in": f"{int(wins.sum())} of {len(pairs)}",
            "pair_ratio": {"median": float(np.median(ratio)),
                           "quartiles": np.percentile(ratio, [25, 75]).tolist()},
            "bound": bound,
            "worse_by": worse_by,
            "verdict": verdict,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    head = header(trees["parent"], trees["change"])
    if head["parent_src_bytecode"] != head["change_src_bytecode"]:
        raise SystemExit("one tree's src/ holds a __pycache__ and the other's does not; "
                         "remove them or give both trees one")
    record = {"header": head, "runs": []}
    if args.out.exists():
        record = json.loads(args.out.read_text())
        old = record["header"]
        if (old["parent_commit"], old["change_commit"]) != (head["parent_commit"],
                                                            head["change_commit"]):
            raise SystemExit(f"{args.out} records other commits; choose another --out")
    run = {"protocol": {"pairs": args.pairs, "seed": args.seed,
                        "seconds": BENCHMARK["run_seconds"], "trace": 0,
                        "order": "alternating, parent first in pair 0"},
           "workloads": {}}
    for workload in args.workload or WORKLOADS:
        pairs = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {side: bench_run(trees[side], workload, args.seed) for side in order}
            pairs.append(pair)
            print(f"{workload} pair {k}: " + ", ".join(
                f"{side} {pair[side]['metrics']}" for side in order), file=sys.stderr)
        run["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs}
    run["gradient_per_call"] = timer_rounds(trees, GRADIENT_TIMER, "median_s")
    run["engine_step_per_call"] = timer_rounds(trees, ENGINE_TIMER, "min_s_per_step")
    record["runs"].append(run)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

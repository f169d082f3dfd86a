"""Span tracing of the qcfciqmc layers, installed from outside the package.

`install` wraps the public functions of each layer module.  The package
imports names with `from .x import y`, so every module namespace that holds
a wrapped function gets the wrapper, and so does `cli.COMMANDS`, which holds
the subcommand functions by value.  `ElementSource.transformed_column` is a
method and is wrapped on the class.

Spans stay in memory as flat arrays (name id, parent span id, start, end)
and are written out once, by `Recorder.dump`, when the traced command ends.
Counts are taken at the same boundaries.  `summarize` turns a dumped file
into per-span-name calls and self time (duration minus the
durations of direct child spans; calls are synchronous, so children never
overlap).
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter
from types import SimpleNamespace

import numpy as np

LAYERS = ("cli", "operators", "simulator", "vqa", "exactdiag", "nsi", "matelem", "fciqmc")

# (module, function) pairs that get a span; names are "<module>.<function>"
WRAPPED = {
    "operators": ("apply_word", "apply_pauli_sum", "to_dense", "diagonal_entry",
                  "jordan_wigner", "build_hubbard"),
    "simulator": ("apply_circuit", "amplitude_vector", "expectation"),
    "vqa": ("gradient", "circuit_energy", "vqe_minimize", "layered_ansatz",
            "hubbard_hv_generator_groups", "lowest_diagonal_reference"),
    "exactdiag": ("diagonalize", "number_sector_indices", "project_to_sector"),
    "nsi": ("transformed_dense", "nsi_report", "transformed_nsi"),
    "matelem": ("get_element", "signed_row", "row_magnitudes", "element_sign",
                "diagonal_element"),
    "fciqmc": ("run", "spawn_step", "death_clone_step", "annihilate", "mixed_energy",
               "statistics", "trajectory_to_csv", "summary_record"),
    "cli": ("load_config", "build_model", "load_circuit", "cmd_ed", "cmd_vqe",
            "cmd_nsi", "cmd_qmc", "cmd_sweep"),
}


class Recorder:
    """In-memory span store plus counters for one traced process."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = {}
        self.rows: set = set()  # distinct rows passed to row_magnitudes
        self.sources: dict = {}  # id -> ElementSource seen by get_element

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, pre=None, post=None):
        """Span around fn; pre(rec, args) runs before the call, post(rec, args,
        result) after a successful one.  Exceptions are counted by type."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(rec, args)
            sid = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.end.append(0.0)
            rec._stack.append(sid)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec.add(f"{name}.raised.{type(exc).__name__}", 1)
                raise
            finally:
                rec.end[sid] = perf_counter()
                rec._stack.pop()
            if post is not None:
                post(rec, args, result)
            return result

        return traced

    def dump(self, path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(self._final_counts())),
        )

    def _final_counts(self) -> dict:
        out = dict(self.counts)
        out["matelem.rows_measured"] = len(self.rows)
        out["matelem.cache_hits"] = sum(s.cache.hits for s in self.sources.values())
        out["matelem.cache_misses"] = sum(s.cache.misses for s in self.sources.values())
        return out


# ---------------------------------------------------------------------------
# counters taken at the span boundaries
# ---------------------------------------------------------------------------

def _sampled(src) -> bool:
    return type(src.backend).__name__ == "SampledBackend"


def _apply_word_bytes(rec, args, result):
    vec = args[1]
    columns = vec.shape[1] if vec.ndim == 2 else 1
    rec.add("operators.apply_word.bytes_computed", 2 * 16 * vec.shape[0] * columns)


def _spawn_post(rec, args, spawned):
    rec.add("fciqmc.walker_steps", args[0].total_walkers)
    rec.add("fciqmc.spawned", sum(abs(c) for c in spawned.values()))


def _annihilate_post(rec, args, result):
    parents, spawned = args[0], args[1]
    before = parents.total_walkers + sum(abs(c) for c in spawned.values())
    rec.add("fciqmc.annihilated", before - result.total_walkers)


def _get_element_pre(rec, args):
    rec.sources.setdefault(id(args[0]), args[0])


def _row_magnitudes_pre(rec, args):
    src, i = args[0], args[1]
    rec.rows.add(int(i))
    if _sampled(src):
        rec.add("matelem.shots", src.backend.shots_magnitude)


def _sign_read_pre(rec, args):
    src = args[0]
    if _sampled(src):
        rec.add("matelem.shots", src.backend.shots_sign)


def _diagonalize_pre(rec, args):
    key = "exactdiag.diagonalize.max_dim"
    rec.counts[key] = max(rec.counts.get(key, 0), int(args[0].shape[0]))


PRE = {
    "exactdiag.diagonalize": _diagonalize_pre,
    "matelem.get_element": _get_element_pre,
    "matelem.row_magnitudes": _row_magnitudes_pre,
    "matelem.element_sign": _sign_read_pre,
    "matelem.diagonal_element": _sign_read_pre,
}
POST = {
    "operators.apply_word": _apply_word_bytes,
    "fciqmc.spawn_step": _spawn_post,
    "fciqmc.annihilate": _annihilate_post,
}


def _replace_everywhere(orig, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qcfciqmc" or mod_name.startswith("qcfciqmc."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Wrap every function in WRAPPED, the element-source method and the
    engine's warnings, in all qcfciqmc module namespaces."""
    mods = {m: importlib.import_module(f"qcfciqmc.{m}") for m in LAYERS}
    cli = mods["cli"]
    for m, funcs in WRAPPED.items():
        for fn_name in funcs:
            name = f"{m}.{fn_name}"
            orig = getattr(mods[m], fn_name)
            new = rec.wrap(name, orig, PRE.get(name), POST.get(name))
            _replace_everywhere(orig, new)
            for key, value in list(cli.COMMANDS.items()):
                if value is orig:
                    cli.COMMANDS[key] = new
    source_cls = mods["matelem"].ElementSource
    source_cls.transformed_column = rec.wrap(
        "matelem.transformed_column", source_cls.transformed_column)

    fciqmc = mods["fciqmc"]
    real_warnings = fciqmc.warnings

    def counted_warn(message, category=None, stacklevel=1, **kwargs):
        rec.add("fciqmc.warnings", 1)
        real_warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

    fciqmc.warnings = SimpleNamespace(warn=counted_warn)


# ---------------------------------------------------------------------------
# reading a dumped span file
# ---------------------------------------------------------------------------

def summarize(path) -> dict:
    """{"spans": {name: {"calls", "self_s"}}, "layers": {layer:
    {"self_s", "incl_s"}}, "counts": {...}}.  A layer's incl_s sums the
    spans whose parent lies in another layer (or is the root)."""
    with np.load(path) as data:
        name = data["name"].astype(np.int64)
        parent = data["parent"].astype(np.int64)
        dur = data["end"] - data["start"]
        names = json.loads(str(data["names"]))
        counts = json.loads(str(data["counts"]))
    n_names = len(names)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time
    calls = np.bincount(name, minlength=n_names)
    selfs = np.bincount(name, weights=self_time, minlength=n_names)
    spans = {names[k]: {"calls": int(calls[k]), "self_s": float(selfs[k])}
             for k in range(n_names)}

    layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names],
                             dtype=np.int64)
    span_layer = layer_of_name[name] if len(name) else np.zeros(0, dtype=np.int64)
    parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
    top = parent_layer != span_layer
    layers = {}
    for k, layer in enumerate(LAYERS):
        mine = span_layer == k
        layers[layer] = {"self_s": float(self_time[mine].sum()),
                         "incl_s": float(dur[mine & top].sum())}
    return {"spans": spans, "layers": layers, "counts": counts}

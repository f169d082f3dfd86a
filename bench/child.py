"""Child-process entry points of the benchmark; `run.py` starts one per use.

    python bench/child.py setup <workload> <seed> <dir>
    python bench/child.py cli [--spans FILE] <qcfciqmc arguments...>

`setup` imports the package and writes one workload's generated inputs into
<dir>.  `cli` runs one command through `qcfciqmc.cli.main` and exits with its
code; with --spans it first installs the span wrappers of `spans.py` and
writes the recorded spans to FILE when the command returns.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_cli():
    import qcfciqmc
    import qcfciqmc.cli

    # a qcfciqmc installed elsewhere must not stand in for the checkout's
    if (ROOT / "src") not in Path(qcfciqmc.__file__).resolve().parents:
        raise SystemExit(f"qcfciqmc imported from {qcfciqmc.__file__}, not {ROOT / 'src'}")
    return qcfciqmc.cli


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 4:
        _import_cli()
        import workloads

        workloads.WORKLOADS[argv[1]].write_inputs(int(argv[2]), Path(argv[3]))
        return 0
    if argv[:1] == ["cli"]:
        args = argv[1:]
        spans_path = None
        if args[:1] == ["--spans"]:
            spans_path, args = args[1], args[2:]
        cli = _import_cli()
        if spans_path is None:
            return cli.main(args)
        import spans

        rec = spans.Recorder()
        spans.install(rec)
        try:
            return cli.main(args)
        finally:
            rec.dump(spans_path)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

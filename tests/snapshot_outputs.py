"""Snapshot every command output on the benchmark's configs, to show that
a change keeps them byte for byte.

The 14 configs are those of ``bench/workloads.py``: bundled, oscillator
seeds 1 and 2 (six plants each) and plants-n8 seed 1.  Each runs in
process through ``cli.main``, with six outputs: ``synthesize``,
``classify``, ``classify --norm one``, ``simulate``'s stdout and its CSV
(at the workload's ``--points``), and ``verify``.  The commands run in a
fresh directory under relative paths, so the CSV path that simulate's
report prints is the same on every run.

Run from the repository root:

    python3 tests/snapshot_outputs.py --save DIR      # write the outputs
    python3 tests/snapshot_outputs.py --compare DIR   # exit 1 on a change

``--compare`` names each output that differs from the saved one (or is
missing from it).
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# (workload, seed) pairs of the benchmark's configs
RUNS = (("bundled", 1), ("oscillator", 1), ("oscillator", 2),
        ("plants-n8", 1))


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def _command(main, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return f"exit {rc}\n" + out.getvalue()


def snapshot() -> dict:
    """``{file name: text}`` of every output of every config."""
    from lognorm_control.cli import main
    outputs = {}
    workloads = _workloads()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for wname, seed in RUNS:
                workload = workloads[wname]
                for problem in workload.problems(seed):
                    cfg, csv = f"{problem.name}.json", f"{problem.name}.csv"
                    Path(cfg).write_text(json.dumps(problem.config))
                    base = ["--config", cfg]
                    for key, argv in (
                            ("synthesize", ["synthesize", *base]),
                            ("classify", ["classify", *base]),
                            ("classify-one",
                             ["classify", *base, "--norm", "one"]),
                            ("simulate",
                             ["simulate", *base, "--out", csv,
                              "--points", str(workload.points)]),
                            ("verify", ["verify", *base])):
                        outputs[f"{problem.name}.{key}.txt"] = \
                            _command(main, argv)
                    outputs[f"{problem.name}.simulate.csv"] = \
                        Path(csv).read_text()
        finally:
            os.chdir(cwd)
    return outputs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", metavar="DIR", type=Path,
                      help="write the outputs into DIR")
    mode.add_argument("--compare", metavar="DIR", type=Path,
                      help="compare the outputs with those saved in DIR")
    args = p.parse_args(argv)
    outputs = snapshot()
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            (args.save / name).write_text(text)
        print(f"{len(outputs)} outputs written to {args.save}")
        return 0
    differ = [name for name, text in outputs.items()
              if not (args.compare / name).is_file()
              or (args.compare / name).read_text() != text]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(outputs) - len(differ)} of {len(outputs)} outputs "
          "byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

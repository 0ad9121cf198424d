"""Snapshot every command output on the benchmark's configs, to show that
a change keeps them byte for byte.

The 14 benchmark configs are those of ``bench/workloads.py``: bundled,
oscillator seeds 1 and 2 (six plants each) and plants-n8 seed 1.  Six
more are built here from ``presets.example_config()``:

- the disturbance-scale ladder, ``ladder-1`` to ``ladder-1e+09``: the
  bundled plant with ``gamma`` "auto", margin 1, and ``omega`` and
  ``omega_bound`` multiplied by s = 1, 1e3, 1e6 and 1e9;
- ``ladder-open``, the bundled plant without a controller (``classify``
  reads no disturbance, so this is every rung's open loop);
- ``slow-decay``, a rotation under ``lambda = [-1, -1]`` and ``gamma =
  2e-8 t``, whose rate turns positive only at t = 5e7.

Each config runs in process through ``cli.main``, with six outputs:
``synthesize``, ``classify``, ``classify --norm one``, ``simulate``'s
stdout and its CSV (at the workload's ``--points``, 1001 for the built
configs; no CSV where simulate fails), and ``verify``.  The commands run
in a fresh directory under relative paths, so the CSV path that
simulate's report prints is the same on every run.

Run from the repository root:

    python3 tests/snapshot_outputs.py --save DIR      # write the outputs
    python3 tests/snapshot_outputs.py --compare DIR   # exit 1 on a change

``--compare`` names each output that differs from the saved one (or is
missing from it).  Where both sides of a differing ``.txt`` output are an
``exit N`` line and a JSON report, it also names the dotted paths that
differ, such as ``exit``, ``sandwich.passed`` or
``c3.measured.identity_max_rel_err``, once each with list indices as
``*`` (``sandwich.pairs.*.slack``); a key on one side only is named too.
For a differing CSV trace it prints the first ``t`` at which a row
differs and the largest absolute difference in each column.
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
LADDER = (1.0, 1e3, 1e6, 1e9)  # disturbance scales s


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def _built_configs() -> list:
    """``(name, config, points)`` of the ladder, its open loop and the
    slowly decaying loop, from the bundled scenario."""
    from lognorm_control.presets import example_config
    base = example_config()
    out = []
    for s in LADDER:
        out.append((f"ladder-{s:g}", {
            **base,
            "controller": {"lambda": [-1.0, -1.0], "gamma": "auto",
                           "margin": 1.0},
            "omega": [f"{s:g}*({e})" for e in base["omega"]],
            "omega_bound": f"{s:g}*({base['omega_bound']})"}, 1001))
    out.append(("ladder-open", {k: v for k, v in base.items()
                                if k != "controller"}, 1001))
    slow = {k: v for k, v in base.items()
            if k not in ("Delta", "omega", "omega_bound")}
    slow["A"] = [["0", "1"], ["-1", "0"]]
    slow["controller"] = {"lambda": [-1.0, -1.0],
                          "gamma": ["2e-8*t", "2e-8*t"]}
    out.append(("slow-decay", slow, 1001))
    return out


def _command(main, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return f"exit {rc}\n" + out.getvalue()


def snapshot() -> dict:
    """``{file name: text}`` of every output of every config."""
    from lognorm_control.cli import main
    workloads = _workloads()
    configs = [(problem.name, problem.config, workloads[wname].points)
               for wname, seed in RUNS
               for problem in workloads[wname].problems(seed)]
    outputs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, doc, points in configs + _built_configs():
                cfg, csv = f"{name}.json", f"{name}.csv"
                Path(cfg).write_text(json.dumps(doc))
                base = ["--config", cfg]
                for key, argv in (
                        ("synthesize", ["synthesize", *base]),
                        ("classify", ["classify", *base]),
                        ("classify-one", ["classify", *base, "--norm", "one"]),
                        ("simulate", ["simulate", *base, "--out", csv,
                                      "--points", str(points)]),
                        ("verify", ["verify", *base])):
                    outputs[f"{name}.{key}.txt"] = _command(main, argv)
                if Path(csv).is_file():
                    outputs[f"{name}.simulate.csv"] = Path(csv).read_text()
        finally:
            os.chdir(cwd)
    return outputs


def _parsed(text: str):
    """``{"exit": N, **report}`` of a command's output, or None if it is
    not an ``exit N`` line followed by a JSON object."""
    head, _, body = text.partition("\n")
    if not head.startswith("exit "):
        return None
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        return None
    return {"exit": head[5:], **doc} if isinstance(doc, dict) else None


def _paths(old, new, prefix=""):
    """The dotted paths at which two parsed JSON values differ, list
    indices as ``*``."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for k in list(old) + [k for k in new if k not in old]:
            if k in old and k in new:
                out += _paths(old[k], new[k], f"{prefix}{k}.")
            else:
                out.append(prefix + k)
        return out
    if (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        return [p for a, b in zip(old, new)
                for p in _paths(a, b, f"{prefix}*.")]
    return [] if old == new else [prefix.rstrip(".")]


def _csv_changes(old: str, new: str) -> list:
    """Lines saying where two CSV traces first differ and by how much at
    most in each column (0 where a column's text is the same)."""
    (head, *a), (new_head, *b) = ([line.split(",") for line in
                                   text.splitlines()] for text in (old, new))
    if head != new_head or len(a) != len(b):
        return [f"header or row count differs ({len(a)} -> {len(b)} rows)"]
    first = next(r[0] for r, s in zip(a, b) if r != s)
    diffs = (max(abs(float(u) - float(v)) if u != v else 0.0
                 for u, v in zip(col_a, col_b))
             for col_a, col_b in zip(zip(*a), zip(*b)))
    return [f"first differs at t={first}",
            "max |diff|: " + ", ".join(f"{name} {d:.3g}"
                                       for name, d in zip(head, diffs))]


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
        saved = args.compare / name
        if name.endswith(".txt") and saved.is_file():
            old, new = _parsed(saved.read_text()), _parsed(outputs[name])
            if old is not None and new is not None:
                for path in dict.fromkeys(_paths(old, new)):
                    print(f"    {path}")
        elif name.endswith(".csv") and saved.is_file():
            for line in _csv_changes(saved.read_text(), outputs[name]):
                print(f"    {line}")
    print(f"{len(outputs) - len(differ)} of {len(outputs)} outputs "
          "byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

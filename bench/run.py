"""Pipeline benchmark of the lognorm-control command line.

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed):

    python3 bench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

One client drives the CLI in a closed loop, in-process through
``lognorm_control.cli.main(argv)``: a pipeline is ``synthesize``,
``classify``, ``simulate --out CSV`` and ``verify`` on one generated
config, and each command starts only after the previous one finished.
A run makes whole passes over the workload's configs (see
``workloads.py`` for the workloads and why each was chosen) until the
commands have taken ``--seconds`` of normalised time (see below); the
last pass may run past it.  Every report is checked after the timed
loop.

Times are normalised to a reference host speed.  On a shared host the
CPU's speed changes by up to ~1.7x, in states that last from a fraction
of a second to minutes, and moves every command's wall time with it.
So the run times ``probe()``, a fixed ~10 ms loop of small numpy calls
that does not use the package, right before and right after every
command, and a 1/10-length sample of it every 50 ms during the command
(from a timer signal; the samples' own time is taken off the command's).
Each command's time is reported as

    raw seconds * PROBE_REF / (mean probe reading around and during it)

i.e. in seconds on a host where the probe takes PROBE_REF.  A change to
the package moves the normalised times as much as the raw ones.  Set-up
subprocesses are timed without samples and normalised by the probes
between them (see measure_setup).  The run is pinned to one CPU, so that
the probes time the CPU the commands and the set-up subprocesses run
on.  The raw medians are printed beside the normalised ones; raw times
and probe readings are kept under ``.bench_out/``.

``--trace 0`` measures the end-to-end metrics, with tracing off:

    setup_s       fresh interpreter to a ready controller: import the
                  package, load the first config, synthesize (median of
                  SETUP_RUNS subprocesses, after one warm-up)
    synthesize_s, classify_s, simulate_s, verify_s
                  wall time of one command (median over invocations)
    pipeline_s    the four commands on one config (median over pipelines
                  of the sum of their normalised times)
    peak_rss_mb   ru_maxrss of this process after the timed loop
    failed_ops    failed command invocations / attempted ones; a failure
                  is a wrong exit code, a wrong verdict or a value
                  outside its reference check.  Printed with its base;
                  it is the ``failed`` / ``attempted`` pair of the JSON.

``--trace 1`` gives the per-layer metrics.  It makes passes of pairs:
each config's pipeline runs untraced and then traced (tracer.py wraps
the package's layer functions from outside); the first config gets one
more traced pipeline if it has only one.  The exact counts of each
config must repeat across its traced pipelines, and every command's
report bytes across all its runs.  Every per-layer figure is per
pipeline and the median over the traced pipelines; ``_us`` figures are
per call.  A pipeline's layer times are normalised by the factor its
commands' times were (normalised over raw pipeline time); they include
the in-command samples' ~2 %.
``trace.overhead_s`` is the median over the pairs of traced minus
untraced pipeline time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name each
metric with its unit, the environment and, traced, the layer split of
each command.  Everything, spans included, is also written under
``.bench_out/``.
"""

import os

# Pin the BLAS/OpenMP pools before numpy is first imported, here and in
# the set-up subprocesses (which inherit the environment).
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path("src")
OUT = Path(".bench_out")
SETUP_RUNS = 11
SETUP_TIMEOUT = 120.0
PROBE_ROUNDS = 1000      # one probe, ~10 ms
SAMPLE_ROUNDS = 100      # one sample taken during a command, ~1 ms
SAMPLE_INTERVAL = 0.05   # s between samples
PROBE_REF = 0.010  # s; about the probe's time on a fast 2-vCPU Xeon VM
WALL_CAP = 3.0

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import lognorm_control
cfg = lognorm_control.load_config(sys.argv[2])
cfg.controller.build(cfg.spec)
"""

# counts that must repeat exactly between two traced runs of one config
EXACT = ("sim.steps_accepted", "sim.steps_rejected", "sim.rhs_calls",
         "sim.phi_steps", "analysis.quad_evals", "linalg.lognorm_calls",
         "system.closed_loop_calls")

COMMANDS = ("synthesize", "classify", "simulate", "verify")

LAYERS = ("config", "synthesis", "expr", "system", "linalg", "analysis",
          "sim", "cli")


def environment() -> dict:
    import numpy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a plain
    source tree without .git reports 'unknown'."""
    head = Path(".git") / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = Path(".git") / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (Path(".git") / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# running

def probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds per PROBE_ROUNDS rounds of a fixed loop of 2x2 numpy
    products and symmetric eigenvalue calls, timed over ``rounds``: a
    yardstick of the host's current speed for code like the package's,
    which spends its time in the interpreter and in calls into numpy on
    small arrays."""
    import numpy as np
    a0 = np.array([[0.3, 0.1], [0.2, 0.4]])
    a = a0
    start = time.perf_counter()
    for _ in range(rounds):
        a = (a @ a0) * 0.9 + a0
        np.linalg.eigvalsh(a + a.T)
    return (time.perf_counter() - start) * PROBE_ROUNDS / rounds


def timed(fn, probes: list):
    """Run ``fn``; return its result, its wall seconds and those seconds
    normalised by the probe readings taken around and during it (all
    appended to ``probes``).  During ``fn`` a timer signal takes a short
    sample every SAMPLE_INTERVAL; the samples' own time is taken off the
    wall time."""
    samples = []

    def sample(signum, frame):
        samples.append(probe(SAMPLE_ROUNDS))

    before = probe()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    readings = [before, *samples, probe()]
    probes += readings
    elapsed -= sum(samples) * SAMPLE_ROUNDS / PROBE_ROUNDS
    return result, elapsed, elapsed * PROBE_REF / statistics.fmean(readings)


def measure_setup(config_path: Path, probes: list) -> tuple[list, list]:
    """Raw and normalised wall times of fresh interpreters that import the
    package, load the config and synthesize its controller; the first
    (warm-up) is dropped.  The times are normalised by the median of the
    probes run between them (appended to ``probes``): a probe right after
    a child exits is now and then several times slower than the rest."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)]
    raw, around = [], [probe()]
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT)
        raw.append(time.perf_counter() - start)
        around.append(probe())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
    probes += around
    factor = PROBE_REF / statistics.median(around)
    return raw[1:], [t * factor for t in raw[1:]]


class Runner:
    """Runs pipelines and keeps every command's outcome for the checks."""

    def __init__(self, workload, problems, work_dir: Path):
        from lognorm_control import cli
        self.cli = cli
        self.workload = workload
        self.problems = problems
        self.work_dir = work_dir
        self.ops = []        # one dict per command invocation
        self.pipelines = []  # one dict per pipeline
        self.probes = []     # probe readings around and during commands
        self.tracer = None
        for pr in problems:
            (work_dir / f"{pr.name}.json").write_text(json.dumps(pr.config))

    def run_op(self, problem, name: str, pipeline=None) -> dict:
        """Run one command on one config and record its outcome; the CSV
        a simulate wrote is read back after the timed region."""
        from workloads import read_trace_csv
        cfg = str(self.work_dir / f"{problem.name}.json")
        csv = self.work_dir / f"{problem.name}.csv"
        argv = [name, "--config", cfg]
        if name == "simulate":
            argv += ["--out", str(csv), "--points", str(self.workload.points)]
            csv.unlink(missing_ok=True)
        op = {"id": len(self.ops), "pipeline": pipeline, "command": name,
              "problem": problem, "traced": self.tracer is not None,
              "states": None}
        main = self.cli.main
        if self.tracer is not None:
            self.tracer.op = op["id"]
            main = self.tracer.span("cli." + name, main)
        out, err = io.StringIO(), io.StringIO()

        def command():
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    return main(argv)
                except SystemExit as exc:  # argparse rejects its input
                    return exc.code if isinstance(exc.code, int) else 2
        op["rc"], op["raw"], op["seconds"] = timed(command, self.probes)
        op["stdout"] = out.getvalue()
        if name == "simulate" and op["rc"] == 0:
            with contextlib.suppress(OSError, ValueError, IndexError):
                op["states"] = read_trace_csv(csv)
        self.ops.append(op)
        return op

    def pipeline(self, problem) -> dict:
        """The four commands on one config."""
        pipe = {"index": len(self.pipelines), "problem": problem.name,
                "ops": [], "seconds": 0.0, "raw": 0.0}
        for name in COMMANDS:
            op = self.run_op(problem, name, pipe["index"])
            pipe["ops"].append(op["id"])
            pipe["seconds"] += op["seconds"]
            pipe["raw"] += op["raw"]
        self.pipelines.append(pipe)
        return pipe

    def passes(self, seconds: float, run=None) -> list:
        """Whole passes of ``run`` (default: one pipeline) over the
        problems, until the commands run in them add up to ``seconds`` of
        normalised time; the first pass always runs.  Counting normalised
        time makes the number of passes the same at any host speed.  The
        passes also stop after WALL_CAP * ``seconds`` of wall time, which
        only commands that fail at once would reach."""
        run = run or self.pipeline
        done = []
        first, start = len(self.ops), time.perf_counter()
        while (sum(op["seconds"] for op in self.ops[first:]) < seconds
               and time.perf_counter() - start < WALL_CAP * seconds):
            done += [run(pr) for pr in self.problems]
        return done

    def check(self) -> list[str]:
        from workloads import check_report
        failures = []
        for op in self.ops:
            for problem in check_report(self.workload, op["problem"],
                                        op["command"], op["rc"],
                                        op["stdout"], op["states"]):
                failures.append(f"op {op['id']} {op['command']} "
                                f"{op['problem'].name}: {problem}")
                op["failed"] = True
        return failures


# ---------------------------------------------------------------------------
# per-layer figures from the spans

def layer_figures(tracer, runner, pipe) -> dict:
    """Per-layer metrics of one traced pipeline."""
    from tracer import QUAD
    ops = set(pipe["ops"])
    spans = [s for s in tracer.spans if s["op"] in ops]
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def hot(name, under=None):
        """Calls and seconds of ``name`` in this pipeline, optionally only
        directly under spans named ``under``."""
        calls = secs = 0
        for (parent, n), (c, t) in tracer.hot.items():
            if n == name and parent in by_id and (
                    under is None or by_id[parent]["name"] == under):
                calls += c
                secs += t
        return calls, secs

    def per_call_us(calls, secs):
        return secs / calls * 1e6 if calls else 0.0

    quads = [s for s in spans if s["name"] in QUAD]
    outer = [s for s in quads if s["parent"] is None
             or by_id[s["parent"]]["name"] not in QUAD]
    sims = named("sim.simulate")
    accepted = sum(s["accepted"] for s in sims)
    attempted = accepted + sum(s["rejected"] for s in sims)
    omega = hot("expr.omega")
    closed = hot("system.closed_loop")
    lognorm = hot("linalg.lognorm")
    induced = hot("linalg.induced_norm")

    verify = next(runner.ops[i] for i in pipe["ops"]
                  if runner.ops[i]["command"] == "verify")
    config = verify["problem"].config
    coverage = float("nan")
    with contextlib.suppress(ValueError, KeyError):
        rep = json.loads(verify["stdout"])
        coverage = ((rep["phi_horizon"] - config["t0"])
                    / (config["horizon"] - config["t0"]))

    return {
        "config.load_ms": sum(map(dur, named("config.load"))) * 1e3,
        "synthesis.synthesize_ms":
            sum(map(dur, named("synthesis.synthesize"))) * 1e3,
        "synthesis.verify_c3_ms":
            sum(map(dur, named("synthesis.verify_c3"))) * 1e3,
        "expr.compile_ms": sum(map(dur, named("expr.compile"))) * 1e3,
        "expr.omega_calls": omega[0],
        "expr.omega_us": per_call_us(*omega),
        "system.closed_loop_calls": closed[0],
        "system.closed_loop_us": per_call_us(*closed),
        "linalg.lognorm_calls": lognorm[0],
        "linalg.lognorm_us": per_call_us(*lognorm),
        "linalg.induced_norm_calls": induced[0],
        "linalg.induced_norm_us": per_call_us(*induced),
        "analysis.quad_calls": len(outer),
        "analysis.quad_evals": sum(s["evals"] for s in outer),
        "analysis.quad_self_ms":
            sum(dur(s) - s["child"] for s in quads) * 1e3,
        "sim.steps_accepted": accepted,
        "sim.steps_rejected": attempted - accepted,
        "sim.rhs_calls": hot("sim.rhs", under="sim.simulate")[0],
        "sim.step_us": (sum(dur(s) - s["child"] for s in sims)
                        / attempted * 1e6 if attempted else 0.0),
        "sim.max_h_mu": max((s["max_h_mu"] for s in sims), default=0.0),
        "sim.phi_steps": sum(s["accepted"]
                             for s in named("sim.fundamental_matrix")),
        "sim.fundamental_ms":
            sum(map(dur, named("sim.fundamental_matrix"))) * 1e3,
        "sim.sandwich_ms": sum(map(dur, named("sim.verify_sandwich"))) * 1e3,
        "sim.sandwich_coverage": coverage,
        "sim.csv_ms": sum(map(dur, named("sim.write_trace_csv"))) * 1e3,
        "sim.csv_bytes": sum(s["bytes"] for s in named("sim.write_trace_csv")),
        "cli.self_ms": sum(dur(s) - s["child"] for s in spans
                           if s["name"].startswith("cli.")) * 1e3,
    }


def command_split(tracer, runner, pipes) -> dict:
    """Share of each command's traced time per layer: span self times and
    aggregated per-matrix calls, attributed by the layer in their name.
    The shares of one command add up to one."""
    command_of = {op["id"]: op["command"] for op in runner.ops}
    ops = {i for p in pipes for i in p["ops"]}
    by_id = {s["id"]: s for s in tracer.spans if s["op"] in ops}
    totals = {}
    for s in by_id.values():
        layer = s["name"].split(".")[0]
        cmd = totals.setdefault(command_of[s["op"]],
                                dict.fromkeys(LAYERS, 0.0))
        cmd[layer] += s["end"] - s["start"] - s["child"]
    for (parent, name), (_, secs) in tracer.hot.items():
        if parent in by_id:
            totals[command_of[by_id[parent]["op"]]][name.split(".")[0]] += secs
    return {cmd: {layer: t / sum(layers.values())
                  for layer, t in layers.items()}
            for cmd, layers in totals.items()}


# ---------------------------------------------------------------------------
# the two kinds of run

def run_untraced(runner, problems, seconds):
    """End-to-end metrics: normalised medians, raw medians, samples."""
    setup_raw, setup = measure_setup(
        runner.work_dir / f"{problems[0].name}.json", runner.probes)
    pipes = runner.passes(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": setup}
    raw = {"setup_s": statistics.median(setup_raw)}
    for cmd in COMMANDS:
        ops = [op for op in runner.ops if op["command"] == cmd]
        samples[f"{cmd}_s"] = [op["seconds"] for op in ops]
        raw[f"{cmd}_s"] = statistics.median(op["raw"] for op in ops)
    samples["pipeline_s"] = [p["seconds"] for p in pipes]
    raw["pipeline_s"] = statistics.median(p["raw"] for p in pipes)
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["peak_rss_mb"] = rss_mb
    return metrics, raw, samples, {}, []


def run_traced(runner, problems, seconds):
    """Per-layer metrics: normalised medians, raw medians, samples, the
    layer split and spans, and determinism mismatches."""
    from tracer import Tracer
    tracer = Tracer()

    def traced_pipeline(problem):
        restore = tracer.install()
        runner.tracer = tracer
        try:
            return runner.pipeline(problem)
        finally:
            runner.tracer = None
            restore()

    # each config untraced, then traced: both warm, close in time
    pairs = runner.passes(
        seconds, lambda pr: (runner.pipeline(pr), traced_pipeline(pr)))
    pipes = [traced for _, traced in pairs]
    if sum(p["problem"] == problems[0].name for p in pipes) < 2:
        pipes.append(traced_pipeline(problems[0]))
    figures = [layer_figures(tracer, runner, p) for p in pipes]

    mismatches, first = [], {}
    for pipe, fig in zip(pipes, figures):
        ref = first.setdefault(pipe["problem"], fig)
        mismatches += [f"{pipe['problem']} {k}: {ref[k]} then {fig[k]}"
                       for k in EXACT if fig[k] != ref[k]]
    reports = {}
    for op in runner.ops:
        reports.setdefault((op["problem"].name, op["command"]),
                           set()).add(op["stdout"])
    mismatches += [f"{cmd} report bytes differ between runs of {name}"
                   for (name, cmd), outs in reports.items() if len(outs) > 1]

    timed_names = [k for k in figures[0] if unit_of(k) in TIME_UNITS]
    normalised = [fig | {k: fig[k] * pipe["seconds"] / pipe["raw"]
                         for k in timed_names}
                  for pipe, fig in zip(pipes, figures)]
    metrics = {k: statistics.median(f[k] for f in normalised)
               for k in figures[0]}
    raw = {k: statistics.median(f[k] for f in figures) for k in timed_names}
    overhead = [t["seconds"] - u["seconds"] for u, t in pairs]
    metrics["trace.overhead_s"] = statistics.median(overhead)
    raw["trace.overhead_s"] = statistics.median(t["raw"] - u["raw"]
                                                for u, t in pairs)
    extra = {"split": command_split(tracer, runner, pipes),
             "figures": figures, "trace": tracer.dump()}
    return metrics, raw, {"trace.overhead_s": overhead}, extra, mismatches


UNITS = {"_ms": "ms", "_us": "us", "_s": "s", "_calls": "count",
         "_evals": "count", "_bytes": "B", "_coverage": "ratio",
         "_h_mu": "ratio", "_mb": "MB"}
TIME_UNITS = ("s", "ms", "us")


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "lognorm_control" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/lognorm_control; run from "
              "the root of a lognorm-control checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # One CPU for the whole run, the set-up subprocesses included: the
    # probes then measure the CPU the timed code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_dir = OUT / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    problems = workload.problems(args.seed)
    runner = Runner(workload, problems, work_dir)

    run = run_traced if args.trace else run_untraced
    values, raw, samples, extra, mismatches = run(runner, problems,
                                                  args.seconds)
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}

    failures = runner.check() + [f"determinism: {m}" for m in mismatches]
    attempted = len(runner.ops)
    failed = sum(1 for op in runner.ops if op.get("failed"))
    correct = not failures

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(problems)} config(s), {len(runner.pipelines)} pipelines, "
          f"{attempted} commands")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"speed: {len(runner.probes)} probes, median "
          f"{statistics.median(runner.probes) * 1e3:.3f} ms; times are "
          f"normalised to a {PROBE_REF * 1e3:g} ms probe")
    for name, (value, unit) in metrics.items():
        notes = []
        if name in raw:
            notes.append(f"raw {raw[name]:.6g}")
        if name in samples:
            notes.append(f"median of {len(samples[name])}")
        notes = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{name:28s} {value:14.6g} {unit}{notes}")
    if not args.trace:
        print(f"{'failed_ops':28s} {failed / attempted:14.6g} ratio "
              f"({failed}/{attempted})")
    else:
        print("layer split of traced time per command (share):")
        print("  " + " " * 11 + "".join(f"{layer:>10s}" for layer in LAYERS))
        for cmd, shares in extra["split"].items():
            print(f"  {cmd:11s}"
                  + "".join(f"{shares[layer]:10.3f}" for layer in LAYERS))
    for f in failures:
        print("FAILED " + f)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "env": env,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "raw": raw, "probes": runner.probes,
              "samples": samples, "failures": failures,
              "ops": [{k: op[k] for k in ("id", "pipeline", "command", "rc",
                                          "seconds", "raw", "traced")}
                      | {"problem": op["problem"].name} for op in runner.ops],
              "attempted": attempted, "failed": failed}
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(extra.pop("trace")))
        record.update(extra)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1,
                                                 default=float))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""mpsckit benchmark: the paper's three user actions, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-corpus --seed 1 --seconds 25 --trace 0

Every operation is one in-process call of the public CLI entry point
``mpsckit.cli.main(argv)`` with ``--json``, from the problem file, by one
closed-loop client.  The last line of standard output is one JSON object
with the run's end-to-end metrics (``--trace 0``) or per-layer metrics
(``--trace 1``).  See perfbench/README.md for the workloads and metrics.
"""

import os

# pin the BLAS pools before numpy is imported, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import instances
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"

CORPUS = ("axes2d", "crossplanes3d", "diagonal2d", "parabola_sheet3d",
          "pinch2d", "ray2d", "tilted_sheet3d", "wedge3d")
WORKLOADS = ("analyze-corpus", "solve-corpus", "cones-wide")

# A run makes seconds / nominal passes, rounded half up and at least one, so
# that the parent and a change do the same work and their latency
# statistics cover the same ranks.  The nominal values are near one pass's
# time at the baseline on a 2-core x86 virtual machine, except for solve-corpus,
# which gets two passes (about 42 s) because its median operation is short
# and drifts most with the machine's speed.
NOMINAL_PASS_S = {"analyze-corpus": 13.0, "solve-corpus": 12.5, "cones-wide": 12.0}
SETUP_REPEATS = 5
TAIL_SHARE = 0.25
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import mpsckit.cli"

# The speed of the shared 2-core virtual machine the baseline was measured
# on drifts by 15-30% over minutes.  A fixed reference kernel, timed before
# every operation and after the last, tracks that drift: each operation's
# time is scaled by REF_NOMINAL_S over the reference time around it, which
# gives seconds at the machine's nominal speed.  REF_NOMINAL_S is the
# kernel's typical time there; it only sets the scale.
REF_NOMINAL_S = 0.060
_REF_A = numpy.random.default_rng(0).standard_normal((64, 8, 8))
_REF_B = _REF_A[0] + 8.0 * numpy.eye(8)

# per-layer metrics: <module>.<function>.<calls|rows|self_s> from the spans,
# plus the ratios and the tracing overhead
LAYER_METRICS = (
    "expr.evaluate.calls", "expr.evaluate.rows", "expr.evaluate.self_s",
    "expr.gradient.calls", "expr.gradient.self_s",
    "expr.hessian.calls", "expr.hessian.self_s",
    "numeric.enumerate_generators.calls", "numeric.enumerate_generators.self_s",
    "numeric.rank_tol.calls", "numeric.rank_tol.self_s",
    "numeric.rank_tol_batch.calls", "numeric.rank_tol_batch.rows",
    "numeric.rank_tol_batch.self_s",
    "numeric.lp_solve.calls", "numeric.lp_solve.self_s",
    "problem.load_problem.self_s", "problem.index_sets.calls",
    "problem.bipartitions.calls",
    "cones.linearization_cone.self_s", "cones.critical_cone.self_s",
    "cones.sample_tangent_directions.calls", "cones.sample_tangent_directions.self_s",
    "cones.tangent.kept_ratio",
    "stationarity.check_w_stationary.self_s", "stationarity.check_m_stationary.self_s",
    "stationarity.check_s_stationary.self_s", "stationarity.normal_cone_oracle.self_s",
    "cq.check_acq.self_s", "cq.check_rcrcq.self_s", "cq.check_psoqn.self_s",
    "cq.rank_constancy.calls", "cq.rank_constancy.self_s",
    "soc.check_wsonc.self_s", "soc.check_ssonc.self_s",
    "penalty.error_bound_probe.calls", "penalty.error_bound_probe.self_s",
    "penalty.exact_penalty_probe.self_s",
    "solver.project_branch_cloud.calls", "solver.project_branch_cloud.rows",
    "solver.project_branch_cloud.self_s", "solver._gauss_newton_polish.self_s",
    "solver._descent_batch.calls", "solver._descent_batch.self_s",
    "solver._alm_batch.calls", "solver._alm_batch.rows", "solver._alm_batch.self_s",
    "solver.solve_branch.feasible_ratio",
    "report.analyze.self_s", "report.cones_section.self_s", "report.sanitize.self_s",
    "trace.overhead_s",
)
UNITS = {"calls": "count", "rows": "count", "self_s": "s", "kept_ratio": "ratio",
         "feasible_ratio": "ratio", "overhead_s": "s"}


@dataclass
class Op:
    label: str
    problem: str
    path: Path
    argv: list


@dataclass
class Result:
    op: Op
    seconds: float
    rc: object
    stderr: str
    text: str | None
    faults: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _dim(path):
    for line in path.read_text().splitlines():
        head, _, rest = line.split("#", 1)[0].strip().partition(" ")
        if head == "vars":
            return len(rest.split())
    raise ValueError(f"{path}: no vars line")


def _json_path(workdir, label):
    return workdir / (label.replace(" ", "_") + ".json")


def corpus_ops(workload, workdir, rng):
    ops = []
    for name in CORPUS:
        path = ROOT / "problems" / f"{name}.mpsc"
        n = _dim(path)
        if workload == "analyze-corpus":
            runs = [("analyze", ["--point", ",".join(["0"] * n), "--with-penalty"])]
        else:
            runs = [("solve enumerative", ["--mode", "enumerative"]),
                    ("solve penalty", ["--mode", "penalty", "--from", ",".join(["1"] * n)])]
        for verb, extra in runs:
            label = f"{verb} {name}"
            ops.append(Op(label, name, path,
                          [verb.split()[0], str(path), *extra,
                           "--json", str(_json_path(workdir, label))]))
    rng.shuffle(ops)
    return ops


def cones_ops(workdir, seed):
    ops = []
    for i, text in enumerate(instances.make_instances(seed)):
        path = workdir / f"instance{i}.mpsc"
        path.write_text(text)
        label = f"cones instance{i}"
        ops.append(Op(label, f"instance{i}", path,
                      ["cones", str(path), "--point", ",".join(["0"] * instances.N_VARS),
                       "--json", str(_json_path(workdir, label))]))
    return ops


def setup(workload, workdir, seed):
    """The operations, and the set-up time: median interpreter start plus
    package import, plus median instance generation for cones-wide."""
    spawn = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        spawn.append(time.perf_counter() - t0)
    if workload != "cones-wide":
        return statistics.median(spawn), corpus_ops(workload, workdir, random.Random(seed))
    gen = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = cones_ops(workdir, seed)
        gen.append(time.perf_counter() - t0)
    return statistics.median(spawn) + statistics.median(gen), ops


# ---------------------------------------------------------------------------
# timed operations
# ---------------------------------------------------------------------------

def clear_caches(modules):
    """Empty the package's functools caches, as a fresh process would have them."""
    for mod in modules:
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_op(op, cli, modules):
    out_path = Path(op.argv[op.argv.index("--json") + 1])
    out_path.unlink(missing_ok=True)
    clear_caches(modules)
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:  # a traceback is a failed operation
        rc = f"uncaught {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    text = out_path.read_text() if out_path.exists() else None
    return Result(op, seconds, rc, stderr.getvalue(), text)


def reference_kernel():
    """Interpreter and small-matrix work that does not touch mpsckit, in
    about the mix the package spends its time on; returns its time."""
    gc.collect()
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(32):
        numpy.linalg.svd(_REF_A)
        numpy.linalg.solve(_REF_B, _REF_A[1])
    return time.perf_counter() - t0


@dataclass
class Pass:
    results: list
    ref_s: list  # reference times: before each operation, and after the last

    @property
    def seconds(self):
        return sum(r.seconds for r in self.results)

    def scaled(self):
        """Each operation's time at nominal speed: scaled by REF_NOMINAL_S
        over the mean of the four reference timings nearest to it (the two
        that bracket it and one more on each side, within the pass)."""
        return [r.seconds * REF_NOMINAL_S / statistics.fmean(self.ref_s[max(0, i - 1):i + 3])
                for i, r in enumerate(self.results)]


def run_pass(ops, cli, modules):
    results, ref_s = [], [reference_kernel()]
    for op in ops:
        results.append(run_op(op, cli, modules))
        ref_s.append(reference_kernel())
    return Pass(results, ref_s)


def run_traced_pass(ops, cli, modules, tracer):
    """Each operation untraced, then traced, so both see the same machine."""
    untraced, traced = [], []
    for i, op in enumerate(ops):
        untraced.append(run_op(op, cli, modules))
        tracer.op = i
        with tracer:
            traced.append(run_op(op, cli, modules))
    return untraced, traced


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def check_results(workload, results):
    """Record each result's faults; return the test for a known failure:
    one listed by operation, or, where the failing instance depends on the
    seed, by the exception the program raised."""
    import checks

    expected = json.loads((HERE / "expected.json").read_text())
    schema = checks.load_schema(ROOT)
    sym = {}
    memo = {}
    for r in results:
        key = (r.op.label, r.rc, r.text)
        if key not in memo:
            if isinstance(r.rc, str) or r.text is None:
                memo[key] = [f"exit {r.rc}: {(r.stderr.strip().splitlines() or [''])[-1]}"]
            elif workload == "analyze-corpus":
                memo[key] = checks.check_analyze(r.op.problem, r.rc, r.text, schema,
                                                 expected[workload])
            else:
                if r.op.problem not in sym:
                    sym[r.op.problem] = checks.SymProblem(r.op.path.read_text())
                problem = sym[r.op.problem]
                memo[key] = (checks.check_solve(r.op.problem, r.rc, r.text, problem,
                                                expected[workload])
                             if workload == "solve-corpus"
                             else checks.check_cones(r.rc, r.text, problem, instances.INSIDE))
        r.faults = list(memo[key])
    known = expected.get(workload, {})
    labels = known.get("known_failures", {})
    raised = known.get("known_exceptions", {})
    return lambda r: r.op.label in labels or (isinstance(r.rc, str) and r.rc in raised)


def latency_stats(seconds):
    """Median, and the mean of the slowest TAIL_SHARE of the operations.

    A single high percentile of a few dozen operations of very different
    cost rests on one operation's time, which drifts with the machine's
    speed; the mean over the slowest quarter is a tail that averages several.
    """
    ordered = sorted(seconds)
    k = max(1, math.ceil(len(ordered) * TAIL_SHARE))
    return statistics.median(ordered), statistics.fmean(ordered[-k:]), k, len(ordered)


def provenance():
    commit = None
    with contextlib.suppress(OSError):
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=30).stdout.strip().partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def layer_metrics(tracer, overhead_s):
    layers = tracer.layers()
    c = tracer.counters
    ratios = {
        "cones.tangent.kept_ratio": (c.get("cones.tangent.kept", 0),
                                     c.get("cones.tangent.drawn", 0)),
        "solver.solve_branch.feasible_ratio": (c.get("solver.solve_branch.feasible", 0),
                                               c.get("solver.solve_branch.solves", 0)),
    }
    out = {}
    for name in LAYER_METRICS:
        func, _, kind = name.rpartition(".")
        if name in ratios:
            num, den = ratios[name]
            value = num / den if den else 0.0
        elif name == "trace.overhead_s":
            value = overhead_s
        else:
            value = layers[func][kind]
        out[name] = {"value": value, "unit": UNITS[kind]}
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src/mpsckit/cli.py").is_file() or not (ROOT / "problems").is_dir():
        print("error: src/mpsckit and problems/ are missing; run from the root of "
              "an mpsckit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from mpsckit import cli

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s, ops = setup(args.workload, workdir, args.seed)
    modules = tr.package_modules()

    if args.trace:
        tracer = tr.Tracer()
        untraced, traced = run_traced_pass(ops, cli, modules, tracer)
        passes = [Pass(untraced, [])]
    else:
        count = max(1, int(args.seconds / NOMINAL_PASS_S[args.workload] + 0.5))
        passes = [run_pass(ops, cli, modules) for _ in range(count)]
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [r for p in passes for r in p.results] + traced
    is_known = check_results(args.workload, results)
    failed = [r for r in results if r.faults]
    mismatched = [t.op.label for u, t in zip(passes[0].results, traced)
                  if (u.rc, u.text) != (t.rc, t.text)]
    correct = not mismatched and all(is_known(r) for r in failed)

    info = provenance()
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations/pass {len(ops)}  trace {args.trace}")
    print("provenance " + json.dumps(info))
    if args.workload == "cones-wide":
        print(f"instances n={instances.N_VARS} m={instances.N_INEQ} "
              f"l={instances.N_SWITCH} count={len(ops)}")
    for label in sorted({r.op.label for r in failed}):
        r = next(r for r in failed if r.op.label == label)
        tag = "known failure" if is_known(r) else "FAILED"
        print(f"{tag}: {label}: {'; '.join(r.faults)[:300]}")
    for label in mismatched:
        print(f"FAILED: {label}: traced output differs from the untraced output")

    pass_s = [p.seconds for p in passes]
    if args.trace:
        tracer.save(OUT / f"trace-{args.workload}.npz")
        overhead = sum(r.seconds for r in traced) - pass_s[0]
        metrics = layer_metrics(tracer, overhead)
        print(f"tracing overhead {overhead:.3f} s on a {pass_s[0]:.3f} s pass; "
              f"{len(tracer.start)} spans in .perfbench_run/trace-{args.workload}.npz")
    else:
        scaled = [p.scaled() for p in passes]
        p50, tail, k, n = latency_stats([t for ts in scaled for t in ts])
        raw_p50, raw_tail, _, _ = latency_stats([r.seconds for r in results])
        print(f"latency_tail_s is the mean latency of the slowest {k} of {n} operations")
        print("speed per pass " + " ".join(f"{sum(ts) / t:.4f}" for ts, t in zip(scaled, pass_s))
              + f"; unscaled: wall {statistics.median(pass_s):.4f} s, "
              f"p50 {raw_p50:.4f} s, tail {raw_tail:.4f} s")
        attempted = len(results)
        metrics = {
            "wall_s": {"value": statistics.median(sum(ts) for ts in scaled), "unit": "s"},
            "latency_p50_s": {"value": p50, "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "ok_ratio": {"value": (attempted - len(failed)) / attempted, "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")

    summary = {"correct": correct, "attempted": len(results), "failed": len(failed),
               "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=info, ref_s=[p.ref_s for p in passes],
                  operations=[{"label": r.op.label, "seconds": r.seconds,
                               "rc": r.rc, "faults": r.faults} for r in results])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of bicheb: three workloads, a correctness gate, a traced run.

    python3 perfbench/run.py --workload build|query|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Set-up runs five times, each in a new process (``prepare.py``), and its
median wall time is ``setup_s``.  After an untimed warm-up the workload
starts passes until S seconds are up (at least two), one operation at a
time from this one process.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` passes alternate untraced and
traced, and the object holds the per-layer metrics instead.  A table of
every metric, with quartiles and sample counts, precedes it, and the full
result with the environment is written under ``.perfbench_work/results``,
and so are the spans of a traced run.

See ``perfbench/README.md`` for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import BLAS_THREADS, BLAS_VARS, Outcome, limit_blas_threads, summary

limit_blas_threads(os.environ)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUPS = 5

# Metric names and units as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
ACCURACY = "acc.max_err."

# Metrics named per workload, reported in the table and the result file.
WORKLOAD_METRICS = {
    "build": {"build_s.small": "s", "build_s.runge": "s", "build_s.bump": "s"},
    "query": {"query.points_per_s": "1/s", "query.grid_points_per_s": "1/s",
              "query.doc_s": "s"},
    "cli": {f"cli_s.{cmd}": "s" for cmd in
            ("approx", "eval", "export", "interp", "integrate", "diff")},
}


class Context:
    """What a workload needs: the package, its inputs, the run's settings."""

    def __init__(self, args, prep, work):
        import bicheb
        self.bicheb = bicheb
        self.bench = BENCH
        self.prep = prep
        self.work = work
        self.seed = args.seed
        self.smoke = args.smoke
        self.outcome = Outcome()
        self.env = child_env()


def child_env():
    env = dict(os.environ)
    env.pop("BICHEB_TOL", None)  # the CLI's default tolerance stays fixed
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    limit_blas_threads(env)
    return env


def tree_digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def set_up(args, work):
    """Run the set-up SETUPS times in new processes; return its times, the
    last input directory and whether all of them wrote the same files."""
    times = []
    digests = set()
    for k in range(SETUPS):
        out = work / f"prep{k}"
        argv = [sys.executable, str(BENCH / "prepare.py"), "--workload",
                args.workload, "--seed", str(args.seed), "--out", str(out)]
        if args.smoke:
            argv.append("--smoke")
        started = time.perf_counter()
        done = subprocess.run(argv, env=child_env(), cwd=work,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=170)
        times.append(time.perf_counter() - started)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            raise SystemExit(f"set-up failed with exit code {done.returncode}")
        digests.add(tree_digest(out))
        if k < SETUPS - 1:
            shutil.rmtree(out)
    return times, out, len(digests) == 1


def environment(args):
    import numpy
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {level: libc.sysconf(code)
              for level, code in (("L1d", 188), ("L2", 191), ("L3", 194))}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cache_bytes": caches,
        "load": "closed loop, one process, one operation at a time",
    }


def working_set(workload, ctx, layers):
    """The workload's largest working set, as far as the run can see it."""
    if workload == "build":
        m = layers.get("fft2d.fft2.max_m") if layers else None
        if not m:
            return {"note": "largest transform size is measured by --trace 1"}
        m = int(m)
        return {"largest_transform_m": m,
                "complex_array_bytes": 16 * m * m,
                "sample_array_bytes": 8 * m * m}
    if workload == "query":
        sizes = {p.name: p.stat().st_size for p in sorted(ctx.prep.glob("*.json"))}
        return {"document_bytes": sizes}
    return {"runge_document_bytes": (ctx.prep / "runge.json").stat().st_size,
            "points_file_bytes": (ctx.prep / "points.txt").stat().st_size}


def drive(workload, seconds, trace):
    """Start passes until the given seconds are up, at least two, after a
    warm-up.

    Traced runs alternate untraced and traced passes and compare their
    outputs.  Returns the per-pass span dumps and the ratio of traced to
    untraced pass time.
    """
    outcome = workload.ctx.outcome
    # Untimed work first fills caches and starts BLAS threads; checks made
    # in it still count, its samples do not.
    workload.warm_up()
    outcome.samples.clear()
    deadline = time.perf_counter() + seconds
    times = {False: [], True: []}
    dumps = []
    plain = None
    passes = 0
    while passes < 2 or time.perf_counter() < deadline:
        traced = bool(trace) and passes % 2 == 1
        elapsed, digests, pass_dumps = workload.one_pass(traced)
        times[traced].append(elapsed)
        if traced:
            dumps.append(pass_dumps)
            outcome.op(digests == plain, "traced outputs differ from untraced")
        else:
            plain = digests
        passes += 1
    ratio = (statistics.median(times[True]) / statistics.median(times[False])
             if times[True] else None)
    return dumps, ratio


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("build", "query", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller bump cases and point counts, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bicheb" / "__init__.py").is_file():
        print(f"no bicheb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, prep, same_setup = set_up(args, work)
        ctx = Context(args, prep, work)
        if args.workload == "build":
            from wl_build import BuildWorkload as Workload
        elif args.workload == "query":
            from wl_query import QueryWorkload as Workload
        else:
            from wl_cli import CliWorkload as Workload
        workload = Workload(ctx)
        outcome = ctx.outcome
        outcome.op(same_setup, "set-up wrote different files for the same seed")
        dumps, overhead = drive(workload, args.seconds, args.trace)
        if args.workload == "cli":
            workload.error_paths()
        peak = (workload.peak_rss_mb if args.workload == "cli" else
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        outcome.samples["setup_s"] = setup_times
        outcome.samples["peak_rss_mb"] = [peak]
        report = build_report(args, ctx, dumps, overhead)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        (results / f"{tag}-spans.json").write_text(json.dumps(dumps) + "\n")
    print_table(report)
    print(json.dumps(report["result"]))
    return 0


def layer_summary(dumps):
    from spans import layer_metrics
    per_pass = [layer_metrics(pass_dumps) for pass_dumps in dumps]
    return {name: statistics.median(p.get(name, 0.0) for p in per_pass)
            for name in PER_LAYER if per_pass and name in per_pass[0]}


def build_report(args, ctx, dumps, overhead):
    outcome = ctx.outcome
    stats = {name: summary(values) for name, values in outcome.samples.items()}
    ratio = outcome.failed / outcome.attempted
    if args.trace:
        layers = layer_summary(dumps)
        layers.update({name: outcome.accuracy.get(name[len(ACCURACY):], 0.0)
                       for name in PER_LAYER if name.startswith(ACCURACY)})
        layers.update({"ops.attempted": outcome.attempted,
                       "ops.failed": outcome.failed, "failed_ratio": ratio,
                       "cli.known_defects": len(outcome.known_defects),
                       "trace.overhead_ratio": overhead})
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        layers = {}
        # a metric whose every operation failed has no value; correct is
        # false then
        metrics = {name: {"value": stats.get(name, summary([]))["median"],
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": outcome.wrong == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    units = {**END_TO_END, **WORKLOAD_METRICS[args.workload]}
    return {
        "workload": args.workload,
        "environment": environment(args),
        "working_set": working_set(args.workload, ctx, layers),
        "samples": {name: {"unit": units.get(name), **stats[name],
                           "values": outcome.samples[name]}
                    for name in units if name in stats},
        "failed_ratio": {"failed": outcome.failed, "attempted": outcome.attempted,
                         "ratio": ratio},
        "failures": outcome.failures,
        "known_defects": outcome.known_defects,
        "max_abs_error": outcome.accuracy,
        "missing_trace_targets": sorted({m for p in dumps for d in p
                                         for m in d["missing"]}),
        "result": result,
    }


def _fmt(v):
    return "-" if v is None else f"{v:.6g}"


def print_table(report):
    env = report["environment"]
    print(f"workload {report['workload']}  seed {env['seed']}  "
          f"seconds {env['seconds']}  trace {env['trace']}  nproc {env['nproc']}  "
          f"numpy {env['numpy']}  BLAS threads {BLAS_THREADS}")
    if not env["trace"]:
        print(f"{'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
        for name, s in report["samples"].items():
            print(f"{name:28} {s['unit']:6} {_fmt(s['median']):>12} "
                  f"{_fmt(s['q1']):>12} {_fmt(s['q3']):>12} {s['n']:>4}")
    else:
        for name, m in report["result"]["metrics"].items():
            print(f"{name:36} {m['unit']:7} {_fmt(m['value']):>14}")
    fr = report["failed_ratio"]
    print(f"failed_ratio {_fmt(fr['ratio'])} ({fr['failed']} failed "
          f"of {fr['attempted']} operations)")
    for what in report["failures"]:
        print(f"  failed: {what}")
    for what in report["known_defects"]:
        print(f"  known defect, not counted: {what}")


if __name__ == "__main__":
    sys.exit(main())

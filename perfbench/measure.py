"""Timing samples, operation outcomes and child processes for the benchmark."""

import os
import signal
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# One BLAS thread, recorded with every result.  On a two-core machine two
# threads made the per-point evaluations of the large query document
# erratic (0.17-1.15 s for 200 points, against 0.20-0.21 s with one).
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads(environ):
    for var in BLAS_VARS:
        environ[var] = BLAS_THREADS


def summary(values):
    """Median, first and third quartile and count of a list of samples."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Outcome:
    """Samples of one run, and the count of operations and failures.

    An operation that fails its check records a failure and no sample, so
    a failed operation's time stays out of the timing metrics.  ``wrong``
    counts failures of operations that should have succeeded: a wrong
    value, a changed rerun, a crash.  The rest of ``failed`` are error-path
    operations that exited with the wrong code or a traceback.
    ``known_defects`` lists inputs known to misbehave that are run but not
    counted as operations.
    """

    samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)
    known_defects: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def op(self, ok, what, error_path=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not error_path:
                self.wrong += 1
            if what not in self.failures:
                self.failures.append(what)
        return ok

    def add(self, name, value):
        self.samples[name].append(value)

    def error(self, case, value):
        self.accuracy[case] = max(self.accuracy.get(case, 0.0), value)


@dataclass
class ChildResult:
    returncode: int
    seconds: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv, env, cwd, log_stem, timeout=150.0):
    """Run argv to completion, timing it and reading its own peak RSS.

    Output goes to files next to log_stem so that no pipe can fill and block
    the child; ``os.wait4`` gives the child's resource usage on its own.
    A child still running after ``timeout`` seconds is killed.
    """
    out_path, err_path = f"{log_stem}.out", f"{log_stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        return ChildResult(proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                           out.read(), err.read())

"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer replaces public functions of the bicheb modules by wrappers,
under the names their callers look up (``bicheb.chebcore.fft2`` is what
``build_adaptive`` calls, ``bicheb.cli.evaluate_matrix`` what ``bicheb eval``
calls).  Each call records a span ``[name, start, end, parent]``; spans stay
in memory and are written out when the traced work ends.  A name that no
longer exists is skipped and listed in ``missing``, so its layer reads zero
calls instead of failing the run.

Nothing here edits the program: ``uninstall`` puts every original back.
"""

import contextlib
import functools
import importlib
import math
import os
import statistics
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []
        self._undo = []

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def install(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.wrap(name, original, before, after))
        self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "missing": self.missing}


# -- hooks that turn call arguments and results into counts ----------------


def _counting_f(key, position=0):
    """Replace the callable argument f, at args[position] or keyword f, by
    one that counts the points it is asked for."""
    def before(tracer, args, kwargs):
        def counting(f):
            def counted(x, y):
                tracer.counts[key] += np.broadcast(x, y).size
                return f(x, y)
            return counted

        if len(args) > position:
            args = args[:position] + (counting(args[position]),) + args[position + 1:]
        else:
            kwargs["f"] = counting(kwargs["f"])
        return args, kwargs
    return before


def _after_fft2(tracer, args, kwargs, result):
    p, q = np.shape(args[0])
    n = p * q
    stages = math.log2(p) + math.log2(q)
    c = tracer.counts
    c["fft2d.fft2.points"] += n
    c["fft2d.fft2.max_m"] = max(c["fft2d.fft2.max_m"], p, q)
    # Radix-2 model: 5 n log2 n real flops; every butterfly stage and the
    # bit-reversal gather of each axis read and write the complex array.
    c["fft2d.fft2.flops_computed"] += 5.0 * n * stages
    c["fft2d.fft2.bytes_computed"] += 32.0 * n * (stages + 2)


def _after_grid(tracer, args, kwargs, result):
    tracer.counts["chebcore.eval.grid.points"] += np.size(result)


def _after_load(tracer, args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    if isinstance(source, (str, os.PathLike)):
        tracer.counts["chebcore.persist.bytes_read"] += os.path.getsize(source)
    elif hasattr(source, "getvalue"):
        tracer.counts["chebcore.persist.bytes_read"] += len(source.getvalue())


def _after_text(tracer, args, kwargs, result):
    tracer.counts["chebcore.persist.bytes_written"] += len(result)


# function name -> (span name, before hook, after hook).  parseval_indicator
# has no metric of its own; its span keeps its time out of cli.approx.self_s.
FUNCTIONS = {
    "build_adaptive": ("chebcore.build", _counting_f("chebcore.sample.points"), None),
    "parseval_indicator": ("chebcore.parseval", _counting_f("chebcore.sample.points", 1), None),
    "sample_grid": ("chebcore.sample", None, None),
    "fft2": ("fft2d.fft2", None, _after_fft2),
    "evaluate_matrix": ("chebcore.eval.matrix", None, None),
    "evaluate_grid": ("chebcore.eval.grid", None, _after_grid),
    "load": ("chebcore.persist.load", None, _after_load),
    "to_cheb2": ("chebcore.persist.to_cheb2", None, None),
    "to_sparse": ("chebcore.persist.to_sparse", None, None),
    "trim": ("chebcore.persist.to_sparse", None, None),
    "document_text": ("chebcore.persist.text", None, _after_text),
    "diff_x": ("calculus.diff", None, None),
    "diff_y": ("calculus.diff", None, None),
    "integrate": ("calculus.integrate", None, None),
    "lagrange_cheb_coeffs": ("interp.lagrange", _counting_f("interp.lagrange.points"), None),
    "parse_expression": ("exprparse.parse", None, None),
    "eval_ast": ("exprparse.eval_ast", None, None),
}

# Where each function is looked up: the package namespace is what the
# in-process workloads call, bicheb.chebcore holds the names its own code
# calls (build_adaptive -> sample_grid, fft2; to_sparse -> trim;
# save -> document_text), and bicheb.cli holds the names the commands call.
TARGETS = {
    "bicheb": ("build_adaptive", "evaluate_matrix", "evaluate_grid", "load",
               "to_cheb2", "to_sparse", "trim", "document_text", "diff_x",
               "diff_y", "integrate", "lagrange_cheb_coeffs",
               "parse_expression", "eval_ast"),
    "bicheb.chebcore": ("sample_grid", "fft2", "trim", "document_text"),
    "bicheb.cli": ("build_adaptive", "parseval_indicator", "evaluate_grid",
                   "evaluate_matrix", "load", "to_cheb2", "to_sparse", "trim",
                   "diff_x", "diff_y", "integrate", "lagrange_cheb_coeffs",
                   "parse_expression", "eval_ast"),
}


def install_all(tracer):
    for module_name, attrs in TARGETS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            tracer.install(module, attr, *FUNCTIONS[attr])


@contextlib.contextmanager
def tracing(enabled):
    """A Tracer with every target wrapped for the block, or None if not
    enabled; the originals are back in place when the block ends."""
    if not enabled:
        yield None
        return
    tracer = Tracer()
    install_all(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()


# -- per-layer metrics derived from the spans -------------------------------

CLI_COMMANDS = ("approx", "eval", "export", "interp", "integrate", "diff")

# metric -> (span name, what to take: "s" outermost time, "calls", "self")
_FROM_SPANS = {
    "chebcore.sample.calls": ("chebcore.sample", "calls"),
    "chebcore.sample.s": ("chebcore.sample", "s"),
    "fft2d.fft2.calls": ("fft2d.fft2", "calls"),
    "fft2d.fft2.s": ("fft2d.fft2", "s"),
    "chebcore.build.self_s": ("chebcore.build", "self"),
    "chebcore.eval.matrix.calls": ("chebcore.eval.matrix", "calls"),
    "chebcore.eval.matrix.s": ("chebcore.eval.matrix", "s"),
    "chebcore.eval.grid.s": ("chebcore.eval.grid", "s"),
    "chebcore.persist.load_s": ("chebcore.persist.load", "s"),
    "chebcore.persist.to_cheb2_s": ("chebcore.persist.to_cheb2", "s"),
    "chebcore.persist.to_sparse_s": ("chebcore.persist.to_sparse", "s"),
    "chebcore.persist.text_s": ("chebcore.persist.text", "s"),
    "calculus.diff.s": ("calculus.diff", "s"),
    "calculus.integrate.s": ("calculus.integrate", "s"),
    "interp.lagrange.s": ("interp.lagrange", "s"),
    "exprparse.parse_s": ("exprparse.parse", "s"),
    "exprparse.eval_ast.calls": ("exprparse.eval_ast", "calls"),
    "exprparse.eval_ast.s": ("exprparse.eval_ast", "s"),
}
_FROM_SPANS.update({f"cli.{cmd}.self_s": (f"cli.{cmd}", "self")
                    for cmd in CLI_COMMANDS})

_FROM_COUNTS = ("chebcore.sample.points", "fft2d.fft2.points",
                "fft2d.fft2.flops_computed", "fft2d.fft2.bytes_computed",
                "chebcore.eval.grid.points", "chebcore.persist.bytes_read",
                "chebcore.persist.bytes_written", "interp.lagrange.points")


def _span_totals(spans):
    """Per span name: outermost calls, outermost seconds and self seconds.

    A span nested (at any depth) in a span of the same name is not counted
    again, so to_sparse -> trim is one to_sparse call.  Self time is the
    span's duration minus its direct children's, which run one after the
    other in a single thread.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls = defaultdict(int)
    seconds = defaultdict(float)
    self_s = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor >= 0:
            continue
        calls[name] += 1
        seconds[name] += end - start
        self_s[name] += end - start - child_s[index]
    return {"calls": calls, "s": seconds, "self": self_s}


def layer_metrics(dumps):
    """Per-layer metrics of one traced pass, from one or more span dumps.

    Counts and seconds add up over the dumps (one per CLI process); max_m
    is the largest over them and cli.import_s their median.
    """
    out = defaultdict(float)
    imports = []
    for dump in dumps:
        spans = dump["spans"]
        totals = _span_totals(spans)
        for metric, (span, kind) in _FROM_SPANS.items():
            out[metric] += totals[kind].get(span, 0)
        counts = dump["counts"]
        for metric in _FROM_COUNTS:
            out[metric] += counts.get(metric, 0.0)
        out["fft2d.fft2.max_m"] = max(out["fft2d.fft2.max_m"],
                                      counts.get("fft2d.fft2.max_m", 0.0))
        out["chebcore.build.iterations"] += sum(
            1 for name, _, _, parent in spans
            if name == "chebcore.sample" and parent >= 0
            and spans[parent][0] == "chebcore.build")
        if "import_s" in dump:
            imports.append(dump["import_s"])
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    computed_bytes = out["fft2d.fft2.bytes_computed"]
    out["fft2d.fft2.ops_per_byte_computed"] = (
        out["fft2d.fft2.flops_computed"] / computed_bytes if computed_bytes else 0.0)
    return dict(out)

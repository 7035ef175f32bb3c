"""Workload ``build``: in-process ``build_adaptive`` on the fixed function set.

Sampling and the 2-D transform do almost all the work; evaluation,
persistence and the CLI do none.  A pass builds the four small cases, the
Runge function and the narrow bump once each; untraced passes repeat the
small cases and Runge EXTRA_REPEATS more times, so the cheap builds get
more samples than the one bump build per pass.
"""

import hashlib
import time

import numpy as np

import inputs
from spans import tracing

EXTRA_REPEATS = 5
NAMED = {"small": "build_s.small", "mid": "build_s.runge",
         "large": "build_s.bump"}


def _digest(c):
    if isinstance(c, Exception):
        return repr(c)
    h = hashlib.sha256()
    h.update(repr((c.coeffs.shape, c.domain, c.tol)).encode())
    h.update(c.coeffs.tobytes())
    return h.hexdigest()


class BuildWorkload:
    def __init__(self, ctx):
        self.ctx = ctx
        self.cases = inputs.build_cases(ctx.smoke)
        check = np.load(ctx.prep / "check.npy")
        self.xs, self.ys = check[0], check[1]
        self.reference = {
            name: np.broadcast_to(case.f(self.xs[:, None], self.ys[None, :]),
                                  (self.xs.size, self.ys.size))
            for name, case in self.cases.items()}
        self.digests = {}

    def _build_group(self, group):
        """Build every case of a size group; return (seconds, results)."""
        bc = self.ctx.bicheb
        results = []
        total = 0.0
        for name in inputs.BUILD_GROUPS[group]:
            case = self.cases[name]
            started = time.perf_counter()
            try:
                c = bc.build_adaptive(case.f, case.tol, relative=case.relative)
            except Exception as exc:  # a failed build fails its check, not the run
                c = exc
            seconds = time.perf_counter() - started
            total += seconds
            results.append((name, c))
        return total, results

    def _check(self, name, c):
        """Max error on the seeded check grid, and the same coefficients as
        every earlier build of this case."""
        if isinstance(c, Exception):
            return False
        case = self.cases[name]
        approx = self.ctx.bicheb.evaluate_grid(c, self.xs, self.ys)
        err = float(np.abs(approx - self.reference[name]).max())
        self.ctx.outcome.error(name, err)
        digest = _digest(c)
        return err <= case.limit and self.digests.setdefault(name, digest) == digest

    def warm_up(self):
        self._run(("small", "mid"), False)

    def one_pass(self, traced):
        if traced:
            return self._run(("small", "mid", "large"), True)
        return self._run(("small", "mid") * (1 + EXTRA_REPEATS) + ("large",), False)

    def _run(self, schedule, traced):
        outcome = self.ctx.outcome
        with tracing(traced) as tracer:
            runs = [(group, *self._build_group(group)) for group in schedule]
        core = 0.0
        seen = set()
        digests = []
        for group, seconds, results in runs:
            ok = all([outcome.op(self._check(name, c), f"build {name}")
                      for name, c in results])
            if group not in seen:
                seen.add(group)
                core += seconds
                digests.extend(_digest(c) for _, c in results)
            if ok and not traced:
                outcome.add(f"{group}_s", seconds)
                outcome.add(NAMED[group], seconds)
        return core, digests, [tracer.dump()] if tracer else []

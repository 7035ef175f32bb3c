"""Workload ``query``: the read path on documents built during set-up.

Evaluation and persistence do the work; sampling and the transform do
none, so a change to either of those should leave this workload unchanged.
For each document a pass times three parts:

- doc: load -> to_cheb2 -> diff_x, diff_y, integrate -> to_sparse of the x
  derivative and trim of the y derivative -> document_text of both, so
  writes sit beside reads;
- points: evaluate_matrix at the seeded scattered points, one call each;
- grid: evaluate_grid on the seeded tensor grid.
"""

import hashlib
import io
import time

import numpy as np

import inputs
from spans import tracing

GRID_SPOT_CHECKS = ((0, 0), (57, 101), (-1, -1))
EXTRA_REPEATS = 4


class QueryWorkload:
    def __init__(self, ctx):
        self.ctx = ctx
        self.docs = {}
        for name in inputs.QUERY_DOCS:
            points = np.load(ctx.prep / f"{name}_points.npy")
            grid = np.load(ctx.prep / f"{name}_grid.npy")
            self.docs[name] = (str(ctx.prep / f"{name}.json"),
                               [(float(x), float(y)) for x, y in points],
                               grid[0], grid[1])
        self.first = {}

    def _read_path(self, name):
        bc = self.ctx.bicheb
        path, points, gx, gy = self.docs[name]
        t0 = time.perf_counter()
        c = bc.to_cheb2(bc.load(path))
        dx = bc.diff_x(c)
        dy = bc.diff_y(c)
        integral = bc.integrate(c)
        sparse_dx = bc.to_sparse(dx)
        sparse_dy = bc.trim(dy.coeffs, dy.tol, dy.domain)
        text_dx = bc.document_text(sparse_dx)
        text_dy = bc.document_text(sparse_dy)
        t1 = time.perf_counter()
        values = np.array([bc.evaluate_matrix(c, x, y) for x, y in points])
        t2 = time.perf_counter()
        grid = bc.evaluate_grid(c, gx, gy)
        t3 = time.perf_counter()
        return (t1 - t0, t2 - t1, t3 - t2), (
            c, integral, [(sparse_dx, text_dx), (sparse_dy, text_dy)], values, grid)

    def _check(self, name, result):
        """Check one document's outputs.

        Returns (doc ok, points ok, grid ok) and the digests of the outputs,
        which must equal those of the run's first pass.
        """
        if isinstance(result, Exception):
            return (False, False, False), repr(result)
        bc = self.ctx.bicheb
        c, integral, written, values, grid = result
        _, points, gx, gy = self.docs[name]
        digests = {
            "doc": hashlib.sha256(
                repr(integral).encode()
                + "".join(text for _, text in written).encode()
            ).hexdigest(),
            "points": hashlib.sha256(values.tobytes()).hexdigest(),
            "grid": hashlib.sha256(grid.tobytes()).hexdigest(),
        }
        first = self.first.setdefault(name, digests)
        doc_ok = first["doc"] == digests["doc"]
        if first is digests:
            # written documents reload to exactly the coefficients written
            doc_ok = doc_ok and all(bc.load(io.StringIO(text)) == sparse
                                    for sparse, text in written)
        # evaluate_matrix against the Clenshaw oracle
        step = max(1, len(points) // inputs.QUERY_ORACLE_POINTS)
        err = max(abs(values[i] - bc.evaluate_clenshaw(c, *points[i]))
                  for i in range(0, len(points), step))
        self.ctx.outcome.error(f"query_{name}", err)
        points_ok = (err <= inputs.QUERY_ORACLE_LIMIT
                     and first["points"] == digests["points"])
        grid_err = max(abs(grid[i, j] - bc.evaluate_matrix(c, gx[i], gy[j]))
                       for i, j in GRID_SPOT_CHECKS)
        grid_ok = (grid.shape == (gx.size, gy.size)
                   and grid_err <= inputs.QUERY_ORACLE_LIMIT
                   and first["grid"] == digests["grid"])
        return (doc_ok, points_ok, grid_ok), digests

    def warm_up(self):
        """Load each document and evaluate a few points, untimed: the first
        parse of a large document and the first large evaluations are
        slower than the rest."""
        bc = self.ctx.bicheb
        for path, points, _, _ in self.docs.values():
            c = bc.to_cheb2(bc.load(path))
            for x, y in points[:inputs.QUERY_ORACLE_POINTS]:
                bc.evaluate_matrix(c, x, y)

    def one_pass(self, traced):
        """Each document once; untraced passes then repeat the two small
        documents, so their short read paths get more samples.

        An untraced pass checks each read path as soon as it ends and drops
        its outputs, so the large document's objects are not alive, and
        scanned by the garbage collector, while the next one is timed.  A
        traced pass checks after the original functions are back.
        """
        schedule = inputs.QUERY_DOCS
        if not traced:
            schedule += (inputs.QUERY_GROUPS["small"],
                         inputs.QUERY_GROUPS["mid"]) * EXTRA_REPEATS
        tally = {"ok": True, "core": 0.0, "digests": [], "query.doc_s": 0.0,
                 "points": 0.0, "grid": 0.0, "npoints": 0, "ngrid": 0}
        pending = []
        with tracing(traced) as tracer:
            for index, name in enumerate(schedule):
                try:
                    times, result = self._read_path(name)
                except Exception as exc:  # fails its checks, not the run
                    times, result = (0.0, 0.0, 0.0), exc
                if traced:
                    pending.append((index, name, times, result))
                else:
                    self._record(tally, index, name, times, result, traced)
                del result
        for index, name, times, result in pending:
            self._record(tally, index, name, times, result, traced)
        if tally["ok"] and not traced:
            outcome = self.ctx.outcome
            outcome.add("query.doc_s", tally["query.doc_s"])
            outcome.add("query.points_per_s", tally["npoints"] / tally["points"])
            outcome.add("query.grid_points_per_s", tally["ngrid"] / tally["grid"])
        return tally["core"], tally["digests"], [tracer.dump()] if tracer else []

    def _record(self, tally, index, name, times, result, traced):
        """Check one read path, count its operations and keep its samples."""
        outcome = self.ctx.outcome
        oks, digest = self._check(name, result)
        for part, ok in zip(("doc", "points", "grid"), oks):
            outcome.op(ok, f"query {name} {part}")
        t_doc, t_points, t_grid = times
        if all(oks) and not traced:
            group = next(g for g, doc in inputs.QUERY_GROUPS.items() if doc == name)
            outcome.add(f"{group}_s", t_doc + t_points + t_grid)
        if index >= len(inputs.QUERY_DOCS):
            return
        # the pass's first read path of each document makes its totals
        tally["ok"] = tally["ok"] and all(oks)
        tally["core"] += t_doc + t_points + t_grid
        tally["digests"].append(digest)
        tally["query.doc_s"] += t_doc
        tally["points"] += t_points
        tally["grid"] += t_grid
        tally["npoints"] += len(self.docs[name][1])
        tally["ngrid"] += inputs.QUERY_GRID ** 2

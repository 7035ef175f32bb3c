"""Workload ``cli``: fresh ``bicheb`` processes on a Runge formula and document.

Only this workload sees argv and file handling; interpreter start and
``import bicheb`` set its floor.  A pass runs the six commands below, each
in a new process, and checks what each prints and writes.  Once per run it
also runs the error-path commands, which must exit with their documented
code and print no traceback.  Commands are timed from start to exit.

Two error-path inputs end in a traceback at the commit that added the
benchmark: a non-ASCII byte in a document and a formula nested 5000
parentheses deep.  They run once per run like the others, but as known
defects: they are not operations of the workload, so they count in
neither ``attempted`` nor ``failed``.  Each one that still ends in a
traceback is listed in the result and counted in the per-layer metric
``cli.known_defects``.
"""

import hashlib
import io
import json
import math
import sys

import numpy as np

import inputs
from measure import run_child

F = inputs.RUNGE_FORMULA

# Size groups: startup-bound commands that read a document, commands that
# build from the formula, and commands with per-point or per-row work.
GROUPS = {"small": ("integrate", "diff"), "mid": ("approx", "interp"),
          "large": ("eval", "export")}

# The CLI documents exit codes 2 (syntax), 3 (no convergence), 4
# (validation), 5 (I/O) and 6 (evaluation).  The non-ASCII document and the
# deeply nested formula have no single documented code, so any of these
# passes for them; a traceback (exit 1) does not.
ANY_DOCUMENTED = (2, 3, 4, 5, 6)


def _runge_dx(x, y):
    return -50.0 * x / (1.0 + 25.0 * (x * x + y * y)) ** 2


def _runge_integral():
    nodes, weights = np.polynomial.legendre.leggauss(400)
    return float(weights @ inputs.runge(nodes[:, None], nodes[None, :]) @ weights)


def _last_value(text, label):
    for line in reversed(text.splitlines()):
        if line.startswith(label):
            return float(line[len(label):].strip(" :"))
    return math.nan


class CliWorkload:
    def __init__(self, ctx):
        self.ctx = ctx
        prep, work = ctx.prep, ctx.work
        self.doc = str(prep / "runge.json")
        self.commands = {
            "approx": ["approx", F, "--tol", "1e-14", "--relative-tol",
                       "-o", str(work / "approx.json")],
            "eval": ["eval", self.doc, "--points-file", str(prep / "points.txt"),
                     "--compare-expr", F, "-o", str(work / "eval.txt")],
            "export": ["export", self.doc, "--resolution",
                       str(inputs.CLI_EXPORT_RESOLUTION), "--compare-expr", F,
                       "-o", str(work / "export.csv")],
            "interp": ["interp", F, "-n", str(inputs.CLI_INTERP_DEGREE),
                       "-m", str(inputs.CLI_INTERP_DEGREE), "--verify",
                       "-o", str(work / "interp.json")],
            "integrate": ["integrate", self.doc],
            "diff": ["diff", self.doc, "--axis", "x", "-o", str(work / "diff.json")],
        }
        self.output_file = {"approx": "approx.json", "eval": "eval.txt",
                            "export": "export.csv", "interp": "interp.json",
                            "diff": "diff.json"}
        probe_out = str(work / "probe.json")
        self.probes = [
            ("malformed JSON", ["eval", str(prep / "malformed.json"),
                                "--point", "0,0"], (2,)),
            ("bad formula", ["approx", "sin(x", "-o", probe_out], (2,)),
            ("abs(x) --max-n 64", ["approx", "abs(x)", "--max-n", "64",
                                   "-o", probe_out], (3,)),
            ("inverted --domain", ["approx", "x", "--domain", "1,-1,0,1",
                                   "-o", probe_out], (4,)),
            ("missing file", ["eval", str(work / "missing.json"),
                              "--point", "0,0"], (5,)),
            ("out-of-domain --point", ["eval", self.doc, "--point", "2,0"], (6,)),
        ]
        self.known_defects = [
            ("non-ASCII byte in a document",
             ["eval", str(prep / "nonascii.json"), "--point", "0,0"],
             ANY_DOCUMENTED),
            ("formula nested 5000 parentheses deep",
             ["approx", "(" * 5000 + "x" + ")" * 5000, "-o", probe_out],
             ANY_DOCUMENTED),
        ]
        self.integral = _runge_integral()
        self.first = {}
        self.peak_rss_mb = 0.0
        self.diff_points = np.stack(inputs.check_grid(ctx.seed))
        self.points = np.loadtxt(prep / "points.txt", delimiter=",", ndmin=2)

    def _argv(self, args, trace_path=None):
        if trace_path is None:
            return [sys.executable, "-m", "bicheb.cli", *args]
        return [sys.executable, str(self.ctx.bench / "clichild.py"),
                str(trace_path), *args]

    def _check(self, cmd, result):
        """Exit code, stated and independently measured accuracy, and rerun
        byte-identity of one command.

        The values a command writes are checked against numpy the first
        time only; later runs must write the same bytes.
        """
        out = result.stdout.decode("ascii", "replace")
        ok = result.returncode == 0 and b"Traceback" not in result.stderr
        # approx prints its own wall time, the one line allowed to change
        printed = "\n".join(line for line in out.splitlines()
                            if not line.startswith("wall time"))
        name = self.output_file.get(cmd)
        written = (self.ctx.work / name).read_bytes() if name and ok else b""
        digest = hashlib.sha256(printed.encode() + b"\0" + written).hexdigest()
        first = self.first.setdefault(cmd, digest)
        if not ok or first != digest:
            return False, digest
        if cmd == "approx":
            return written == (self.ctx.prep / "runge.json").read_bytes(), digest
        if cmd == "integrate":
            err = abs(float(out.strip()) - self.integral)
            return err <= inputs.CLI_INTEGRAL_LIMIT, digest
        if cmd == "interp":
            err = _last_value(out, "max node residual")
            self.ctx.outcome.error("cli_interp", err)
            return err <= inputs.CLI_RESIDUAL_LIMIT, digest
        if cmd == "eval":
            stated = _last_value(written.decode("ascii"), "max_abs_error")
        elif cmd == "export":
            stated = _last_value(out, "max_abs_error")
        else:
            stated = 0.0
        if not stated <= inputs.CLI_ERROR_LIMIT:
            return False, digest
        if first is digest:
            err, limit = self._measured_error(cmd, written)
            self.ctx.outcome.error(f"cli_{cmd}", err)
            return err <= limit, digest
        return True, digest

    def _measured_error(self, cmd, written):
        """Max error of the written values against numpy, and its limit."""
        if cmd == "diff":
            bc = self.ctx.bicheb
            dx = bc.to_cheb2(bc.load(io.StringIO(written.decode("ascii"))))
            xs, ys = self.diff_points
            err = np.abs(bc.evaluate_grid(dx, xs, ys)
                         - _runge_dx(xs[:, None], ys[None, :])).max()
            return float(err), inputs.CLI_DIFF_LIMIT
        if cmd == "eval":
            rows = np.loadtxt(io.BytesIO(written), max_rows=inputs.CLI_POINTS, ndmin=2)
            xs, ys = self.points.T
        else:
            rows = np.loadtxt(io.BytesIO(written), delimiter=",", skiprows=1, ndmin=2)
            xs, ys, rows = rows[:, 0], rows[:, 1], rows[:, 2:]
        if rows.shape[0] != xs.size:
            return float("inf"), inputs.CLI_ERROR_LIMIT
        return float(np.abs(rows[:, 0] - inputs.runge(xs, ys)).max()), inputs.CLI_ERROR_LIMIT

    def warm_up(self):
        self.one_pass(False)

    def one_pass(self, traced):
        outcome = self.ctx.outcome
        core = 0.0
        digests = []
        dumps = []
        seconds = {}
        for cmd, args in self.commands.items():
            trace_path = None
            if traced:
                trace_path = self.ctx.work / f"trace-{cmd}.json"
                trace_path.unlink(missing_ok=True)
            result = run_child(self._argv(args, trace_path), self.ctx.env,
                               self.ctx.work, str(self.ctx.work / f"log-{cmd}"))
            ok, digest = self._check(cmd, result)
            outcome.op(ok, f"cli {cmd}")
            core += result.seconds
            digests.append(digest)
            if traced:
                if trace_path.exists():
                    dumps.append(json.loads(trace_path.read_text(encoding="ascii")))
            elif ok:
                seconds[cmd] = result.seconds
                outcome.add(f"cli_s.{cmd}", result.seconds)
                self.peak_rss_mb = max(self.peak_rss_mb, result.maxrss_mb)
        for group, cmds in GROUPS.items():
            if all(cmd in seconds for cmd in cmds):
                outcome.add(f"{group}_s", sum(seconds[cmd] for cmd in cmds))
        return core, digests, dumps

    def _probe(self, index, what, args, codes):
        result = run_child(self._argv(args), self.ctx.env, self.ctx.work,
                           str(self.ctx.work / f"log-probe{index}"))
        ok = result.returncode in codes and b"Traceback" not in result.stderr
        return ok, (f"cli error path: {what} (exit {result.returncode}, "
                    f"expected {'/'.join(map(str, codes))})")

    def error_paths(self):
        """Run each error-path command once; count those that misbehave,
        and list the known defects that still do."""
        outcome = self.ctx.outcome
        for index, probe in enumerate(self.probes):
            outcome.op(*self._probe(index, *probe), error_path=True)
        for index, probe in enumerate(self.known_defects, len(self.probes)):
            ok, what = self._probe(index, *probe)
            if not ok:
                outcome.known_defects.append(what)

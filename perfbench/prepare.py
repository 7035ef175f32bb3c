"""Set-up step of one workload, run in its own process and timed as setup_s.

    python3 perfbench/prepare.py --workload query --seed 1 --out DIR [--smoke]

Writes the workload's inputs into DIR from the seed alone:

- build: the check grid coordinates;
- query: the three coefficient documents, built with ``build_adaptive`` and
  saved, plus the scattered points and grid coordinates of each;
- cli: the Runge document (written by ``bicheb approx`` run in-process), the
  points file and the malformed inputs of the error-path commands.

Two set-ups with the same seed must write byte-identical files.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import inputs

import bicheb
from bicheb import cli


def prepare_build(out, seed, smoke):
    xs, ys = inputs.check_grid(seed)
    np.save(out / "check.npy", np.stack([xs, ys]))


def prepare_query(out, seed, smoke):
    for stream, (name, (f, tol, relative, npoints)) in enumerate(
            inputs.query_specs(smoke).items(), start=10):
        c = bicheb.build_adaptive(f, tol, relative=relative)
        bicheb.save(bicheb.to_sparse(c), str(out / f"{name}.json"))
        r = inputs.rng(seed, stream)
        np.save(out / f"{name}_points.npy", r.uniform(-1.0, 1.0, (npoints, 2)))
        grid = np.sort(r.uniform(-1.0, 1.0, (2, inputs.QUERY_GRID)), axis=1)
        np.save(out / f"{name}_grid.npy", grid)


def prepare_cli(out, seed, smoke):
    code = cli.main(["approx", inputs.RUNGE_FORMULA, "--tol", "1e-14",
                     "--relative-tol", "-o", str(out / "runge.json")])
    if code != 0:
        raise SystemExit(f"approx exited with {code}")
    points = inputs.rng(seed, 20).uniform(-1.0, 1.0, (inputs.CLI_POINTS, 2))
    (out / "points.txt").write_text(
        "".join(f"{x:.17g},{y:.17g}\n" for x, y in points), encoding="ascii")
    (out / "malformed.json").write_text('{"degree_x": 3,,}\n', encoding="ascii")
    (out / "nonascii.json").write_bytes(
        b'{"degree_x": 0, "degree_y": 0, "domain": [-1, 1, -1, 1],\n'
        b' "tol": 0, "entries": [[0, 0, 1.0]], "note": "\xff"}\n')


PREPARE = {"build": prepare_build, "query": prepare_query, "cli": prepare_cli}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PREPARE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    PREPARE[args.workload](out, args.seed, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())

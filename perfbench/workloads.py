"""The four benchmark workloads.

Each workload is made from a seed: its input files, the edgelab CLI
invocations of one round, and the checks that judge their outputs.  The
program receives only the generated files and arguments.
"""

from __future__ import annotations

import json
import math
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

import checks

# Sizes of one round; the benchmark's README explains each choice.
SIZES = {
    "rate": {"M": 2_000_000, "n_grid": [25, 50, 100, 200, 400]},
    "tstat": {"n": 400, "B": 1 << 17, "mc_budget": 500_000},
    "setclass": {"n": 400, "B": 1 << 15, "s": 5},
    "certify": {"n": 300, "radii": 512},
}

# Atoms of the 2-d non-lattice law: no two differences share a lattice.
CERTIFY_ATOMS = np.array([
    [0.0, 0.0], [1.0, math.sqrt(2)], [math.sqrt(3), 0.5],
    [-math.sqrt(5) / 2, 1.0], [math.pi / 3, -math.sqrt(7) / 3],
    [math.e / 2, math.sqrt(11) / 4]])

SETCLASS_MIX = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0],
                         [0.3, -0.4, 1.0]])
SETCLASS_SETS = [
    {"kind": "halfspace", "normal": [1.0, 0.5, -0.3], "offset": 0.4},
    {"kind": "halfspace", "normal": [-0.6, 1.0, 0.8], "offset": -0.5},
    {"kind": "halfspace", "normal": [0.2, -0.7, 1.1], "offset": 1.0},
    {"kind": "halfspace", "normal": [1.0, 1.0, 1.0], "offset": 0.0},
    {"kind": "box", "low": [-1.0, -math.inf, -math.inf],
     "high": [1.0, math.inf, math.inf]},
    {"kind": "box", "low": [-math.inf, -0.5, -math.inf],
     "high": [math.inf, 1.5, math.inf]},
    {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
    {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.6},
    {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.2},
    {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 3.0},
]

TSTAT_GRID = "-4:4:0.05"


@dataclass
class Operation:
    """One CLI invocation; `check` maps its outputs to a list of problems."""

    name: str
    argv: List[str]
    files: List[Path]
    check: Callable[[dict], list]
    # a pattern matching the problems by which this invocation shows a
    # known program fault on every run; only those leave the run correct
    known_fault: str = ""

    def shows_known_fault(self, problem: str) -> bool:
        return bool(self.known_fault) and bool(
            re.search(self.known_fault, problem))


def write_points(path: Path, points: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in np.atleast_2d(points):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def _expect_ok(fn):
    """Wrap a check so a wrong exit code is reported before anything else."""
    def check(out):
        if out["rc"] != 0:
            return ["exit code %d: %s" % (out["rc"], out["stderr"].strip())]
        return fn(out)
    return check


def _lattice_check(out, points) -> list:
    """On lattice data the right answers are a refusal that names the
    lattice or the missing margin, or a status other than certified; a
    certificate must pass the full check."""
    if out["rc"] != 0:
        if re.search(r"lattice|margin", out["stderr"], re.IGNORECASE):
            return []
        return ["exit code %d, and the error names neither the lattice nor "
                "the margin: %s" % (out["rc"], out["stderr"].strip())]
    if not json.loads(out["stdout"])["status"].startswith("certified"):
        return []
    return checks.check_certify(out["stdout"], points)


def rate(seed: int, work: Path, M: int, n_grid) -> List[Operation]:
    cfg = {"family": "centered-exponential", "s": 3, "n_grid": list(n_grid),
           "M": M, "seed": int(_rng("rate", seed).integers(2 ** 31)),
           "mode": "analytic", "out": str(work / "out")}
    path = work / "rate.json"
    path.write_text(json.dumps(cfg))
    csv_path = work / "out" / "rate_study.csv"
    t_grid = np.linspace(-5.0, 5.0, 401)
    return [Operation(
        "rate-study", ["rate-study", "--config", str(path)],
        [csv_path, work / "out" / "rate_study.json"],
        _expect_ok(lambda out: checks.check_rate(out[csv_path], n_grid, M,
                                                 t_grid)))]


def tstat(seed: int, work: Path, n: int, B: int,
          mc_budget: int) -> List[Operation]:
    prog_seed = int(_rng("tstat", seed).integers(2 ** 31))
    out_dir = work / "out"
    # tstat-study draws its sample from the child stream (seed, 202)
    w = np.random.default_rng(np.random.SeedSequence(
        entropy=prog_seed, spawn_key=(202,))).exponential(size=n) - 1.0
    lo, hi, step = (float(v) for v in TSTAT_GRID.split(":"))
    t_grid = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    table, summary = out_dir / "tstat_study.csv", out_dir / "tstat_study.json"
    argv = ["tstat-study", "--family", "centered-exponential", "--n", str(n),
            "--seed", str(prog_seed), "--B", str(B), "--s", "3",
            "--tgrid=" + TSTAT_GRID, "--mc-budget", str(mc_budget),
            "--out", str(out_dir)]
    return [Operation(
        "tstat-study", argv, [table, summary],
        _expect_ok(lambda out: checks.check_tstat(out[table], out[summary],
                                                  w, t_grid)))]


def setclass(seed: int, work: Path, n: int, B: int, s: int) -> List[Operation]:
    rng = _rng("setclass", seed)
    points = (rng.exponential(size=(n, 3)) - 1.0) @ SETCLASS_MIX.T
    data, sets = work / "setclass.csv", work / "sets.json"
    write_points(data, points)
    sets.write_text(json.dumps(SETCLASS_SETS))
    out_dir = work / "out"
    table = out_dir / "bootstrap_compare.csv"
    summary = out_dir / "bootstrap_compare.json"
    argv = ["bootstrap-compare", "--data", str(data), "--sets", str(sets),
            "--B", str(B), "--s", str(s),
            "--seed", str(int(rng.integers(2 ** 31))), "--out", str(out_dir)]
    loaded = checks.load_csv_points(data)
    return [Operation(
        "bootstrap-compare", argv, [table, summary],
        _expect_ok(lambda out: checks.check_setclass(out[table],
                                                     out[summary], loaded,
                                                     s)))]


def certify(seed: int, work: Path, n: int, radii: int) -> List[Operation]:
    rng = _rng("certify", seed)
    data = work / "certify2d.csv"
    write_points(data, CERTIFY_ATOMS[rng.integers(0, len(CERTIFY_ATOMS), n)])
    # fixed lattice data: the same on every seed, so its failure is too
    lattice = work / "lattice1d.csv"
    write_points(lattice, (np.arange(60) % 5).astype(float)[:, None])
    pts2, pts1 = checks.load_csv_points(data), checks.load_csv_points(lattice)
    scan = ["--b", "1", "--R", "1", "--grid-radii", str(radii)]
    return [
        Operation("certify-2d",
                  ["certify", "--data", str(data), "--Tmax", "200"] + scan,
                  [], _expect_ok(lambda out: checks.check_certify(
                      out["stdout"], pts2))),
        Operation("certify-lattice",
                  ["certify", "--data", str(lattice), "--Tmax", "50"] + scan,
                  [], lambda out: _lattice_check(out, pts1),
                  # cramer._scan reports certified-on-grid with a zero
                  # margin when no target c is given (see the README)
                  known_fault=r"on lattice data|no positive margin"),
    ]


BUILDERS = {"rate": rate, "tstat": tstat, "setclass": setclass,
            "certify": certify}


def build(name: str, seed: int, work: Path, **sizes) -> List[Operation]:
    """Make the inputs of workload `name` from `seed` under `work`; return
    the operations of one round."""
    (work / "out").mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work, **{**SIZES[name], **sizes})

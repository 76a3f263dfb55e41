"""The golden record: fixed edgelab invocations and their outputs.

Each case runs ``edgelab.cli.main`` in process on the inputs in
``tests/golden/inputs`` and records its exit code, its stdout, its
``error:`` lines and the files it writes into its output directory.
Paths are recorded as ``{inputs}`` and ``{out}``.  ``tests/test_golden.py``
re-runs every case and compares the parsed outputs with the record: keys,
columns, strings, integers, booleans and statuses must be equal, and
floats must agree within 1e-12 relative (or 1e-13 absolute, for values
such as |Q64 - Q32| or 1 - |cf| near a lattice spike that are formed by
cancellation).  The tolerance absorbs last-bit differences of BLAS and
libm between machines, not a stream or formula change.  The Cramer scan
locates its witness only to about 1.5e-8 relative (see
``weak_cramer_scan``), and a last-bit change of |cf| moves it within that
bracket, so the values taken at the witness are compared to 1e-7
relative.

After an intended output change, regenerate the inputs and the record
with

    python tests/golden.py

and list each changed record file, with its reason, beside the change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
REL_TOL, ABS_TOL = 1e-12, 1e-13
WITNESS_TOL = 1e-7
WITNESS_KEYS = {"c", "witness", "witness_modulus", "S_value", "ustat_record"}

_RATE = {"s": 3, "n_grid": [10, 20, 40, 80], "M": 20_000, "seed": 1}
_RESAMPLED = dict(_RATE, family="centered-exponential", mode="bootstrap",
                  B=16_389, reps=2, seed=2)   # two resampling chunks

# name -> argv, with an optional rate-study/uniform-sweep config (written
# to {config}) and an optional CPU count for the resampling pool
CASES = {
    "cf_scan_1d": {"argv": [
        "cf-scan", "--data", "{inputs}/three_point.csv", "--Tmax", "50",
        "--grid-radii", "64", "--cR", "0.05"]},
    "certify_1d": {"argv": [
        "certify", "--data", "{inputs}/three_point.csv", "--Tmax", "50",
        "--grid-radii", "64", "--c", "1e-4"]},
    "certify_2d": {"argv": [
        "certify", "--data", "{inputs}/atoms_2d.csv", "--Tmax", "30",
        "--grid-radii", "32", "--grid-dirs", "16"]},
    "certify_lattice": {"argv": [
        "certify", "--data", "{inputs}/lattice.csv", "--Tmax", "20",
        "--grid-radii", "64"]},
    "bootstrap_compare_1d": {"argv": [
        "bootstrap-compare", "--n", "100", "--B", "4096", "--seed", "6",
        "--out", "{out}"]},
    "bootstrap_compare_sets_2d": {"argv": [
        "bootstrap-compare", "--data", "{inputs}/skewed_2d.csv", "--sets",
        "{inputs}/sets_2d.json", "--B", "4096", "--s", "4", "--seed", "7",
        "--out", "{out}"]},
    "tstat_study": {"argv": [
        "tstat-study", "--n", "80", "--B", "4096", "--tgrid=-3:3:0.5",
        "--seed", "5", "--out", "{out}"]},
    "rate_study_exponential": {
        "argv": ["rate-study", "--config", "{config}"],
        "config": dict(_RATE, family="centered-exponential")},
    "rate_study_gamma": {
        "argv": ["rate-study", "--config", "{config}"],
        "config": dict(_RATE, family="gamma", theta={"shape": 2.5})},
    "rate_study_bootstrap_1cpu": {
        "argv": ["rate-study", "--config", "{config}"],
        "config": _RESAMPLED, "cpus": 1},
    "rate_study_bootstrap_4cpus": {
        "argv": ["rate-study", "--config", "{config}"],
        "config": _RESAMPLED, "cpus": 4},
    "uniform_sweep": {
        "argv": ["uniform-sweep", "--config", "{config}"],
        "config": {"s": 3, "n_grid": [8, 16, 32, 64], "M": 20_000,
                   "seed": 4, "families": [
                       {"name": "gaussian"},
                       {"name": "bernoulli", "theta": {"p": 0.3}},
                       {"name": "three-point-irrational"},
                       {"name": "centered-exponential"},
                       {"name": "gamma", "theta": {"shape": 3.0}},
                       {"name": "gaussian-mixture"}]}},
    "expand_family": {"argv": [
        "expand", "--family", "centered-exponential", "--n", "50", "--s",
        "4"]},
    "expand_data": {"argv": [
        "expand", "--data", "{inputs}/skewed_2d.csv", "--s", "3"]},
    "refuse_bad_grid": {"argv": [
        "tstat-study", "--n", "50", "--B", "64", "--tgrid", "1:-1:0.5",
        "--out", "{out}"]},
    "refuse_set_dimension": {"argv": [
        "bootstrap-compare", "--data", "{inputs}/skewed_2d.csv", "--sets",
        "{inputs}/sets_1d.json", "--B", "64", "--out", "{out}"]},
    "refuse_family_parameter": {
        "argv": ["rate-study", "--config", "{config}"],
        "config": dict(_RATE, family="gamma", theta={"shape": -1.5})},
}


def write_inputs() -> None:
    """The data and set files that the cases read."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20181)

    def save(name, pts, header):
        np.savetxt(INPUTS / name, pts, fmt="%.17g", delimiter=",",
                   header=header, comments="")

    save("three_point.csv",
         np.array([0.0, 1.0, math.sqrt(2.0)])[rng.integers(0, 3, 300)], "x")
    save("lattice.csv", (np.arange(60) % 5).astype(float), "x")
    atoms = np.array([[0.0, 0.0], [1.0, math.sqrt(2.0)],
                      [math.sqrt(3.0), 0.5]])
    save("atoms_2d.csv", atoms[rng.integers(0, 3, 200)], "x,y")
    save("skewed_2d.csv",
         rng.exponential(size=(150, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]]),
         "x,y")
    sets = {
        "sets_2d.json": [
            {"kind": "box", "low": [-1.0, -0.5], "high": [1.0, 1.5]},
            {"kind": "ball", "center": [0.0, 0.0], "radius": 1.2},
            {"kind": "halfspace", "normal": [1.0, -0.4], "offset": 0.2}],
        "sets_1d.json": [
            {"kind": "box", "low": [-1.0, -1.0], "high": [1.0, 1.0]},
            {"kind": "box", "low": [-1.0], "high": [1.0]}]}
    for name, specs in sets.items():
        (INPUTS / name).write_text(json.dumps(specs, indent=1) + "\n")


def run_case(case: dict, tmp: Path) -> dict:
    """Run one case in the scratch directory tmp and return its record."""
    from edgelab import bootstrap
    from edgelab.cli import main

    out = tmp / "out"
    subs = {"{inputs}": str(INPUTS), "{out}": str(out),
            "{config}": str(tmp / "config.json")}

    def fill(arg):
        for key, value in subs.items():
            arg = arg.replace(key, value)
        return arg

    def unfill(text):
        return text.replace(str(out), "{out}").replace(str(INPUTS),
                                                       "{inputs}")

    if "config" in case:
        (tmp / "config.json").write_text(
            json.dumps(dict(case["config"], out=str(out))))
    stdout, stderr = io.StringIO(), io.StringIO()
    cpus = bootstrap._available_cpus
    if "cpus" in case:
        bootstrap._available_cpus = lambda: case["cpus"]
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = main([fill(a) for a in case["argv"]])
    finally:
        bootstrap._available_cpus = cpus
    files = ({p.name: unfill(p.read_text()) for p in sorted(out.iterdir())}
             if out.exists() else {})
    return {"argv": case["argv"], "config": case.get("config"), "rc": rc,
            "stdout": unfill(stdout.getvalue()),
            "errors": [unfill(line) for line in
                       stderr.getvalue().splitlines()
                       if line.startswith("error:")],
            "files": files}


def _cell(text: str):
    """A CSV cell as an int, a float or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(name: str, text: str):
    """An output as data: a CSV file as rows of typed cells, stdout as
    one JSON value per line, any other file as JSON."""
    if name.endswith(".csv"):
        return [[_cell(c) for c in row]
                for row in csv.reader(io.StringIO(text))]
    if name == "stdout":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def differences(want, got, where: str = "", rel: float = REL_TOL) -> list:
    """Where want and got differ: in structure, type or value, or in a
    float by more than rel relative and ABS_TOL absolute; the values under
    a key in WITNESS_KEYS are compared to WITNESS_TOL relative."""
    if type(want) is not type(got):
        return ["%s: %r != %r" % (where, want, got)]
    if isinstance(want, dict):
        if list(want) != list(got):
            return ["%s: keys %s != %s" % (where, list(want), list(got))]
        return [d for k in want
                for d in differences(want[k], got[k], "%s/%s" % (where, k),
                                     WITNESS_TOL if k in WITNESS_KEYS
                                     else rel)]
    if isinstance(want, list):
        if len(want) != len(got):
            return ["%s: length %d != %d" % (where, len(want), len(got))]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, "%s[%d]" % (where, i), rel)]
    if isinstance(want, float):
        same = (math.isclose(want, got, rel_tol=rel, abs_tol=ABS_TOL)
                or (math.isnan(want) and math.isnan(got)))
        return [] if same else ["%s: %r != %r" % (where, want, got)]
    return [] if want == got else ["%s: %r != %r" % (where, want, got)]


def compare(want: dict, got: dict) -> list:
    """The differences between a recorded and a fresh run of a case."""
    out = differences({k: want[k] for k in ("argv", "config", "rc",
                                            "errors")},
                      {k: got[k] for k in ("argv", "config", "rc",
                                           "errors")})
    out += differences(sorted(want["files"]), sorted(got["files"]), "files")
    for name in ["stdout"] + sorted(set(want["files"]) & set(got["files"])):
        a = want["stdout"] if name == "stdout" else want["files"][name]
        b = got["stdout"] if name == "stdout" else got["files"][name]
        out += differences(parse(name, a), parse(name, b), name)
    return out


def main() -> int:
    write_inputs()
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(case, Path(tmp))
        (GOLDEN / (name + ".json")).write_text(
            json.dumps(record, indent=1) + "\n")
        print("%s: exit %d" % (name, record["rc"]))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())

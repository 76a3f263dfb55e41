"""Each independent check accepts the program's real output and rejects a
deliberately perturbed copy of it.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

import checks
import run
import tracing
import workloads
from edgelab import cli

SMALL = {
    "rate": {"M": 200_000, "n_grid": [25, 50, 100, 200]},
    "tstat": {"B": 4096, "mc_budget": 200_000},
    "setclass": {"B": 1 << 14},
    "certify": {"n": 120, "radii": 96},
}


def outputs(name, tmp_path, seed=7):
    ops = workloads.build(name, seed, tmp_path, **SMALL[name])
    return ops, run.collect(ops, run.run_round(cli, ops))


def edit_csv(data: bytes, row: int, column: str, fn) -> bytes:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    k = header.index(column)
    # only a first column (setclass set ids) may hold commas
    cells = lines[row].rsplit(",", len(header) - 1)
    cells[k] = repr(fn(checks._num(cells[k])))
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def perturbed(out, key, new):
    return {**out, key: new}


def test_rate_check(tmp_path):
    (op,), (out,) = outputs("rate", tmp_path)
    assert op.check(out) == []
    csv_path = op.files[0]
    # row 1 is n=25, s=2: a sup-deviation off by 0.02 is far outside DKW
    assert op.check(perturbed(out, csv_path, edit_csv(
        out[csv_path], 1, "value", lambda v: v + 0.02)))
    assert op.check(perturbed(out, csv_path, edit_csv(
        out[csv_path], 2, "mc_se", lambda v: v * 1.01)))
    dropped = b"\n".join(out[csv_path].splitlines()[:-1]) + b"\n"
    assert op.check(perturbed(out, csv_path, dropped))
    assert op.check(perturbed(out, "rc", 1))


def test_tstat_check(tmp_path):
    (op,), (out,) = outputs("tstat", tmp_path)
    table, summary = op.files
    assert op.check(out) == []
    rows = out[table].decode().splitlines()
    gaussian = out[table]
    for i in range(1, len(rows)):
        gaussian = edit_csv(gaussian, i, "q_tilde", lambda v, i=i: float(
            ndtr(float(rows[i].split(",")[0]))))
    assert any("Hall" in p for p in op.check(perturbed(out, table,
                                                        gaussian)))
    middle = len(rows) // 2
    assert op.check(perturbed(out, table, edit_csv(
        out[table], middle, "q_emp", lambda v: v + 0.2)))
    s = json.loads(out[summary])
    s["sup_deviation"] *= 0.5
    assert op.check(perturbed(out, summary, json.dumps(s).encode()))


def test_setclass_check(tmp_path):
    (op,), (out,) = outputs("setclass", tmp_path)
    table, summary = op.files
    assert op.check(out) == []
    ids = [json.loads(next(csv.reader([line]))[0])
           for line in out[table].decode().splitlines()[1:]]
    kinds = [spec["kind"] for spec in ids]
    half = kinds.index("halfspace") + 1
    slab = kinds.index("box") + 1
    ball = kinds.index("ball") + 1

    def edit(row, column, fn):
        return perturbed(out, table, edit_csv(out[table], row, column, fn))

    assert any("1-d expansion" in p for p in op.check(
        edit(half, "q_tilde", lambda v: v + 1e-6)))
    assert any("1-d expansion" in p for p in op.check(
        edit(slab, "q_tilde", lambda v: v - 1e-6)))
    assert any("monotone" in p for p in op.check(
        edit(ball + 1, "q_emp", lambda v: 0.0)))
    s = json.loads(out[summary])
    s["sup_deviation"] = 0.5
    assert op.check(perturbed(out, summary, json.dumps(s).encode()))


def test_certify_check(tmp_path):
    (op2, op1), (out2, lattice) = outputs("certify", tmp_path)
    assert op2.check(out2) == []
    problems = op1.check(lattice)
    assert problems and all(op1.shows_known_fault(p) for p in problems)
    # the fixed program may refuse lattice data, naming why, or not
    # certify it; any other error is a new fault
    assert op1.check({"rc": 1, "stdout": b"", "stderr":
                      "error: the data lie on a lattice"}) == []
    other = op1.check({"rc": 1, "stdout": b"", "stderr":
                       "error: operands could not be broadcast"})
    assert other and not any(op1.shows_known_fault(p) for p in other)
    refused = {**json.loads(lattice["stdout"]), "status": "no-margin"}
    assert op1.check(perturbed(lattice, "stdout",
                               json.dumps(refused).encode())) == []
    base = json.loads(out2["stdout"])

    def with_field(**changes):
        return perturbed(out2, "stdout",
                         json.dumps({**base, **changes}).encode())

    assert op2.check(with_field(witness_modulus=base["witness_modulus"]
                                - 1e-4))
    assert op2.check(with_field(c=base["c"] * 1.001))
    assert op2.check(with_field(c=0.0))
    assert op2.check(with_field(S_value=base["S_value"] * 1.01))
    assert op2.check(with_field(prob_bound=base["prob_bound"] * 1.01))
    assert op2.check(with_field(c_R=base["c_R"] * 0.5))
    assert op2.check(with_field(status="violated"))
    assert not any(op2.shows_known_fault(p) for p in op2.check(
        with_field(c=0.0)))
    assert op1.check(perturbed(lattice, "stdout", json.dumps(
        {**json.loads(lattice["stdout"]), "S_value": 2.0}).encode()))


def test_edgeworth_cdf_matches_closed_form():
    t = np.linspace(-3, 3, 13)
    n, k3 = 50, 2.0
    closed = ndtr(t) - np.exp(-t * t / 2) / math.sqrt(2 * math.pi) \
        * k3 * (t * t - 1) / (6 * math.sqrt(n))
    got = checks.edgeworth_cdf_1d([0, 0, 1, k3], n, 3, t)
    assert np.allclose(got, closed, rtol=0, atol=1e-14)


def test_lattice_span():
    assert checks.lattice_span(np.array([0.0, 0.5, 2.0, 1.5])) == 0.5
    assert checks.lattice_span(np.array([0.0, 1.0, math.sqrt(2)])) is None


def test_tracer_restores_the_program(tmp_path):
    import edgelab
    before = {name: getattr(edgelab.harness, name)
              for name in ("bootstrap_draws", "build_expansion",
                           "exact_sum_cdf_mc")}
    contains = edgelab.expansion.SetSpec.__dict__["contains"]
    tracer = tracing.Tracer(edgelab)
    tracer.install()
    try:
        assert edgelab.harness.bootstrap_draws is not \
            before["bootstrap_draws"]
        ops, _ = outputs("certify", tmp_path)
    finally:
        tracer.uninstall()
    for name, fn in before.items():
        assert getattr(edgelab.harness, name) is fn
    assert edgelab.expansion.SetSpec.__dict__["contains"] is contains
    # every per-layer metric of the benchmark names a traced span
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    m = tracer.metrics([x["name"] for x in bench["per_layer"]
                        if x["name"] != run.OVERHEAD], 1)
    assert m["cramer.c_r_lower_bound.pairs_per_s"] > 0
    assert m["cli.main.s"] >= m["cramer.weak_cramer_scan.s"] > 0
    assert m["cramer.weak_cramer_scan.self_s"] < m[
        "cramer.weak_cramer_scan.s"]
    with pytest.raises(ValueError):
        tracer.metrics(["cramer.no_such_layer.s"], 1)

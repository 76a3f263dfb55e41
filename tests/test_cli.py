import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edgelab
from edgelab import bootstrap, cli, cumulants, harness
from edgelab.cli import _load_points, main
from edgelab.families import make_family


def write_points(path, pts):
    np.savetxt(path, np.atleast_2d(pts), delimiter=",")
    return str(path)


def reject_constant(name):
    raise ValueError("not strict JSON: %s" % name)


@pytest.fixture
def bernoulli_csv(tmp_path):
    rng = np.random.default_rng(0)
    pts = (rng.random(200) < 0.5).astype(float)[:, None]
    return write_points(tmp_path / "bern.csv", pts)


@pytest.fixture
def spread_csv(tmp_path):
    rng = np.random.default_rng(1)
    support = np.array([0.0, 1.0, math.sqrt(2.0)])
    pts = support[rng.integers(0, 3, 300)][:, None]
    return write_points(tmp_path / "threept.csv", pts)


def test_cf_scan_detects_lattice(bernoulli_csv, capsys):
    rc = main(["cf-scan", "--data", bernoulli_csv, "--c", "1e-4",
               "--Tmax", "50"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "violated"
    assert payload["witness_modulus"] >= 1 - 1e-10


def test_cf_scan_with_header_row(tmp_path, capsys):
    path = tmp_path / "with_header.csv"
    path.write_text("x\n0.1\n0.9\n1.7\n-0.3\n")
    rc = main(["cf-scan", "--data", str(path), "--Tmax", "20"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "no-margin"


def test_certify_lattice_data_has_no_margin(tmp_path, capsys):
    """|cf| = 1 at 2 pi on the integers: without a target c the scan finds
    a zero margin and must not call it certified."""
    path = write_points(tmp_path / "lattice.csv",
                        (np.arange(60) % 5).astype(float)[:, None])
    assert main(["certify", "--data", path, "--Tmax", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "no-margin"
    assert payload["witness_modulus"] >= 1 - 1e-12


def test_nonpositive_target_margin_is_rejected(spread_csv, capsys):
    for command in ("cf-scan", "certify"):
        assert main([command, "--data", spread_csv, "--c", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "target margin c must be > 0" in captured.err


def test_scans_refuse_fewer_than_one_direction(tmp_path, capsys):
    """--grid-dirs 0 used to scan the default 64 directions and -3 to end
    in numpy's argmin of an empty sequence."""
    rng = np.random.default_rng(4)
    path = write_points(tmp_path / "pts2d.csv", rng.normal(size=(50, 2)))
    for command in ("cf-scan", "certify"):
        for n_dirs in ("0", "-3"):
            assert main([command, "--data", path, "--Tmax", "20",
                         "--grid-dirs", n_dirs]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "need at least one scan direction" in captured.err


def test_scans_refuse_a_direction_count_for_one_dimensional_data(
        spread_csv, capsys):
    """--grid-dirs used to be ignored for 1-d data, which scan +1 and -1."""
    for command in ("cf-scan", "certify"):
        assert main([command, "--data", spread_csv, "--grid-dirs", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid-dirs" in captured.err


def test_every_json_output_is_one_line_of_strict_json(tmp_path, capsys):
    """Standard output of cf-scan, certify and expand, and the JSON files
    (and printed summaries) of tstat-study, bootstrap-compare, rate-study
    and uniform-sweep: one line, one trailing newline, no NaN or
    Infinity token."""
    rng = np.random.default_rng(6)
    pts2 = write_points(tmp_path / "pts2.csv", rng.exponential(size=(60, 2)))
    cfg = tmp_path / "rate.json"
    cfg.write_text(json.dumps({"family": "centered-exponential", "s": 3,
                               "n_grid": [25, 50, 100, 200], "M": 2000,
                               "out": str(tmp_path / "rate")}))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"families": [{"name": "gamma"}], "s": 3,
                                 "n_grid": [25, 50, 100, 200], "M": 2000,
                                 "out": str(tmp_path / "sweep")}))
    runs = [
        (["cf-scan", "--data", pts2, "--Tmax", "20", "--grid-radii", "16"],
         None),
        (["certify", "--data", pts2, "--Tmax", "20", "--grid-radii", "16"],
         None),
        (["expand", "--n", "30", "--s", "4"], None),
        (["tstat-study", "--n", "60", "--B", "2000", "--tgrid=-1:1:0.5",
          "--out", str(tmp_path / "t")], tmp_path / "t" / "tstat_study.json"),
        (["bootstrap-compare", "--n", "60", "--B", "2000",
          "--out", str(tmp_path / "b")],
         tmp_path / "b" / "bootstrap_compare.json"),
        (["rate-study", "--config", str(cfg)],
         tmp_path / "rate" / "rate_study.json"),
        (["uniform-sweep", "--config", str(sweep)],
         tmp_path / "sweep" / "uniform_sweep.json"),
    ]
    for argv, path in runs:
        assert main(argv) in (0, 2), argv
        texts = [capsys.readouterr().out]
        if path is not None:
            texts.append(path.read_text())
        for text in texts:
            assert text.endswith("}\n") and text.count("\n") == 1, argv
            json.loads(text, parse_constant=reject_constant)


def test_certify_spread_data(spread_csv, capsys):
    rc = main(["certify", "--data", spread_csv, "--Tmax", "100",
               "--c", "1e-3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"].startswith("certified")
    assert payload["c_R"] > 0
    assert 0 < payload["prob_bound"] < 1
    assert payload["ustat_record"]["holds"]


def test_bootstrap_compare_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["bootstrap-compare", "--family", "centered-exponential",
               "--n", "120", "--B", "20000", "--s", "3",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "bootstrap_compare.json").read_text())
    assert summary["sup_deviation"] < 0.1
    lines = (out / "bootstrap_compare.csv").read_text().splitlines()
    assert lines[0] == "set_id,q_emp,q_tilde,abs_dev,mc_se"
    assert len(lines) == 402


def test_bootstrap_compare_custom_sets(tmp_path, capsys):
    # a set file may hold infinite bounds (JSON's Infinity token)
    sets = [{"kind": "halfline", "t": 0.0},
            {"kind": "box", "low": [-1.0], "high": [1.0]},
            {"kind": "box", "low": [-math.inf], "high": [0.5]}]
    spec = tmp_path / "sets.json"
    spec.write_text(json.dumps(sets))
    out = tmp_path / "out"
    rc = main(["bootstrap-compare", "--n", "80", "--B", "5000",
               "--sets", str(spec), "--out", str(out)])
    assert rc == 0
    lines = (out / "bootstrap_compare.csv").read_text().splitlines()
    assert len(lines) == 4
    for row in csv.reader(lines[1:]):
        for cell in row[1:]:        # every cell after set_id is a number
            float(cell)
    summary = json.loads((out / "bootstrap_compare.json").read_text())
    assert "degenerate_draws" not in summary


def test_tstat_study_outputs(tmp_path):
    """The expansion curve is a quadrature: --mc-budget is accepted and
    changes no byte; mc_se holds the distance to the 32-node rule."""
    outputs = []
    for budget in ("1000", "50000"):
        out = tmp_path / budget
        rc = main(["tstat-study", "--n", "150", "--B", "20000",
                   "--tgrid=-2:2:0.5", "--mc-budget", budget,
                   "--out", str(out)])
        assert rc == 0
        outputs.append([(out / name).read_bytes().replace(
            str(out).encode(), b"OUT")
            for name in ("tstat_study.csv", "tstat_study.json")])
    assert outputs[0] == outputs[1]
    summary = json.loads((out / "tstat_study.json").read_text())
    assert summary["sup_deviation"] < 0.1
    assert abs(summary["singular_mass"]) < 1e-3
    assert "singular_mc_points" not in summary
    lines = (out / "tstat_study.csv").read_text().splitlines()
    assert lines[0] == "t,q_emp,q_tilde,abs_dev,mc_se"
    assert len(lines) == 10          # 9 grid points
    assert all(float(line.split(",")[4]) < 1e-5 for line in lines[1:])


def test_resampling_outputs_do_not_depend_on_workers(tmp_path, monkeypatch):
    """tstat-study and bootstrap-compare --sets over three chunks (the
    last one partial) write the same bytes on one and on two threads."""
    data = write_points(tmp_path / "pts.csv", np.random.default_rng(3)
                        .exponential(size=(60, 2)) - 1.0)
    spec = tmp_path / "sets.json"
    spec.write_text(json.dumps([
        {"kind": "halfspace", "normal": [1.0, -0.5], "offset": 0.3},
        {"kind": "box", "low": [-1.0, -math.inf], "high": [0.5, 1.0]},
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.5}]))
    B = str(2 * 16384 + 5)
    runs = [
        (["tstat-study", "--n", "120", "--B", B, "--tgrid=-2:2:0.25"],
         ["tstat_study.csv", "tstat_study.json"]),
        (["bootstrap-compare", "--data", data, "--sets", str(spec),
          "--B", B], ["bootstrap_compare.csv", "bootstrap_compare.json"]),
    ]
    out = tmp_path / "out"
    for argv, names in runs:
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(bootstrap, "_available_cpus",
                                lambda: workers)
            assert main(argv + ["--seed", "5", "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]


def test_rate_study_cli_and_determinism(tmp_path, capsys, monkeypatch):
    cfg = {"family": "centered-exponential", "s": 3,
           "n_grid": [25, 50, 100, 200], "M": 20000, "seed": 0,
           "out": str(tmp_path / "run1")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["rate-study", "--config", str(cfg_path)])
    assert rc == 0
    first = (tmp_path / "run1" / "rate_study.csv").read_bytes()

    cfg["out"] = str(tmp_path / "run2")
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 4)
    rc = main(["rate-study", "--config", str(cfg_path)])
    assert rc == 0
    second = (tmp_path / "run2" / "rate_study.csv").read_bytes()
    assert first == second


def test_rate_study_inconclusive_exit_code(tmp_path, capsys):
    # gaussian data vs its own expansion: the metric is pure noise, every
    # record sits inside the DKW band
    cfg = {"family": "gaussian", "s": 2, "n_grid": [25, 50, 100, 200],
           "M": 2000, "seed": 0, "out": str(tmp_path / "rung")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["rate-study", "--config", str(cfg_path)]) == 2
    # no record is left to fit: the slopes are null, and both outputs are
    # strict JSON
    for text in (capsys.readouterr().out,
                 (tmp_path / "rung" / "rate_study.json").read_text()):
        slopes = json.loads(text, parse_constant=reject_constant)
        slopes = slopes.get("slopes", slopes)
        assert slopes["s=2"] == {"slope": None, "stderr": None, "n_used": 0}


def test_uniform_sweep_cli(tmp_path, capsys):
    cfg = {"families": [{"name": "centered-exponential"},
                        {"name": "gamma", "theta": {"shape": 3.0}}],
           "s": 3, "n_grid": [25, 50, 100, 200], "M": 20000, "seed": 1,
           "out": str(tmp_path / "sweep")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["uniform-sweep", "--config", str(cfg_path)])
    assert rc == 0
    records = (tmp_path / "sweep" / "uniform_sweep.csv").read_text()
    assert "sweep-max" in records
    assert "rho_proxy" in records


def test_expand_family(capsys):
    rc = main(["expand", "--family", "centered-exponential", "--n", "50",
               "--s", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 1 and payload["s"] == 4 and payload["n"] == 50
    js = [blk["j"] for blk in payload["hermite"]]
    assert js == [0, 1, 2]


def test_expand_from_data(tmp_path, capsys):
    rng = np.random.default_rng(2)
    path = write_points(tmp_path / "pts.csv", rng.normal(size=(60, 1)))
    rc = main(["expand", "--data", path, "--s", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 1


def test_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["cf-scan", "--data", missing]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\nc,d\n")
    assert main(["cf-scan", "--data", str(bad)]) == 1
    # a config number that strict JSON cannot hold is refused before the run
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"families": [{"name": "gaussian"}], "s": 2, '
                   '"n_grid": [25, 50, 100, 200], "M": 2000, '
                   '"rho_cap": Infinity, "out": "%s"}' % (tmp_path / "o"))
    capsys.readouterr()
    assert main(["uniform-sweep", "--config", str(cfg)]) == 1
    assert "Infinity" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _fails_naming(argv, words, capsys):
    """argv exits 1 with one error line that holds every word, and
    prints nothing."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    for word in words:
        assert word in lines[0]


@pytest.mark.parametrize("command, cfg, missing", [
    ("rate-study", {"n_grid": [25, 50, 100, 200]}, "family"),
    ("rate-study", {"family": "gaussian"}, "n_grid"),
    ("uniform-sweep", {"n_grid": [25, 50, 100, 200]}, "families"),
    ("uniform-sweep", {"families": [{"name": "gaussian"}]}, "n_grid"),
    ("uniform-sweep", {"families": [{"theta": {}}],
                       "n_grid": [25, 50, 100, 200]}, "name"),
])
def test_config_without_a_required_key(tmp_path, capsys, command, cfg,
                                       missing):
    cfg = dict(cfg, M=1000, out=str(tmp_path / "o"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _fails_naming([command, "--config", str(path)],
                  [str(path), repr(missing)], capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("M", [0, 2.5, -5])
def test_rate_study_refuses_a_bad_sum_count(tmp_path, capsys, M):
    cfg = {"family": "centered-exponential", "n_grid": [25, 50, 100, 200],
           "M": M, "out": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _fails_naming(["rate-study", "--config", str(path)],
                  ["M must be an integer >= 1", repr(M)], capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["rate-study", "uniform-sweep"])
@pytest.mark.parametrize("key, value, words", [
    ("n_grid", [1.5, 25, 50, 100], ["n_grid", "1.5"]),
    ("n_grid", [True, 25, 50, 100], ["n_grid", "True"]),
    ("n_grid", [0, 25, 50, 100], ["n_grid", "not 0"]),
    ("reps", 0, ["reps", "not 0"]),
    ("reps", 1.5, ["reps", "1.5"]),
], ids=["n-fraction", "n-bool", "n-zero", "reps-zero", "reps-fraction"])
def test_study_refuses_a_bad_count(tmp_path, capsys, command, key, value,
                                   words):
    """Every n and reps must be an integer >= 1, and a bool is not one:
    the study exits 1 naming the entry, before it writes anything."""
    cfg = {"family": "centered-exponential",
           "families": [{"name": "centered-exponential"}],
           "n_grid": [25, 50, 100, 200], "M": 1000,
           "out": str(tmp_path / "o"), key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _fails_naming([command, "--config", str(path)],
                  words + ["must be an integer" if key == "reps"
                           else "must be integers >= 1"], capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family, theta, words", [
    ("gamma", {"shape": -1.5}, ["gamma shape", "> 0", "-1.5"]),
    ("gamma", {"shape": 0}, ["gamma shape", "> 0", "not 0"]),
    ("gamma", {"shape": "nan"}, ["gamma shape", "finite number", "'nan'"]),
    ("gamma", {"shape": True}, ["gamma shape", "finite number", "True"]),
    ("bernoulli", {"p": 1.0}, ["bernoulli p", "(0, 1)", "1.0"]),
    ("bernoulli", {"p": 0}, ["bernoulli p", "(0, 1)", "not 0"]),
    ("bernoulli", {"p": "0.3"}, ["bernoulli p", "finite number", "'0.3'"]),
    ("gaussian-mixture", {"sds": [0, 0]}, ["gaussian-mixture sds", "> 0"]),
    ("gaussian-mixture", {"sds": [1.0, "1"]},
     ["gaussian-mixture sds", "finite number", "'1'"]),
    ("gaussian-mixture", {"means": [0.0, False]},
     ["gaussian-mixture means", "finite number", "False"]),
    ("gaussian-mixture", {"means": [0.0]},
     ["gaussian-mixture", "same length"]),
    ("gamma", {"shap": 2.0}, ["gamma takes no parameter", "'shap'"]),
], ids=["shape-negative", "shape-zero", "shape-string", "shape-bool",
        "p-one", "p-zero", "p-string", "sd-zero", "sd-string", "mean-bool",
        "mean-length", "unknown-key"])
def test_rate_study_refuses_a_bad_family_parameter(tmp_path, capsys, family,
                                                    theta, words):
    """A parameter outside the family's domain, or of the wrong type,
    exits 1 naming the family and the parameter, before any work.  (The
    config reader already refuses Infinity and NaN; make_family refuses
    them too, see test_family_parameters_must_be_finite.)"""
    cfg = {"family": family, "theta": theta, "n_grid": [25, 50, 100, 200],
           "M": 1000, "out": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _fails_naming(["rate-study", "--config", str(path)], words, capsys)
    assert not (tmp_path / "o").exists()


def test_uniform_sweep_refuses_a_bad_family_parameter(tmp_path, capsys):
    cfg = {"families": [{"name": "gamma"},
                        {"name": "gamma", "theta": {"shape": "nan"}}],
           "n_grid": [25, 50, 100, 200], "M": 1000,
           "out": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _fails_naming(["uniform-sweep", "--config", str(path)],
                  ["gamma shape", "finite number", "'nan'"], capsys)
    assert not (tmp_path / "o").exists()


def test_set_without_a_required_key(tmp_path, capsys):
    data = write_points(tmp_path / "pts.csv",
                        np.random.default_rng(3).normal(size=(50, 2)))
    sets = tmp_path / "sets.json"
    for spec, missing in (({"radius": 1.0, "kind": "ball"}, "'center'"),
                          ({"center": [0.0, 0.0]}, "'kind'"),
                          ({"kind": "cone"}, "'cone'")):
        sets.write_text(json.dumps([{"kind": "halfspace", "normal": [1, 0],
                                     "offset": 0.0}, spec]))
        _fails_naming(["bootstrap-compare", "--data", data, "--sets",
                       str(sets), "--B", "100", "--out",
                       str(tmp_path / "o")],
                      ["%s set 1" % sets, missing], capsys)


def _no_resampling(*args, **kwargs):
    raise AssertionError("resampled before refusing the input")


@pytest.mark.parametrize("spec, words", [
    ({"kind": "box", "low": [-1.0], "high": [1.0]},
     ["box 'low' has dimension 1", "the data have dimension 3"]),
    ({"kind": "halfspace", "normal": [1.0, 0.5], "offset": 0.0},
     ["halfspace 'normal' has dimension 2", "the data have dimension 3"]),
    ({"kind": "ball", "center": [0.5], "radius": 1.0},
     ["ball 'center' has dimension 1", "the data have dimension 3"]),
    ({"kind": "halfline", "t": 0.0},
     ["halfline has dimension 1", "the data have dimension 3"]),
])
def test_set_of_another_dimension_is_refused(tmp_path, capsys, monkeypatch,
                                             spec, words):
    data = write_points(tmp_path / "pts.csv",
                        np.random.default_rng(4).normal(size=(50, 3)))
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([{"kind": "ball", "center": [0.0] * 3,
                                 "radius": 1.0}, spec]))
    monkeypatch.setattr(bootstrap, "bootstrap_draws", _no_resampling)
    _fails_naming(["bootstrap-compare", "--data", data, "--sets", str(sets),
                   "--out", str(tmp_path / "o")],
                  ["%s set 1: " % sets] + words, capsys)
    assert not (tmp_path / "o").exists()


def test_shifted_ball_is_refused_before_resampling(tmp_path, capsys,
                                                  monkeypatch):
    data = write_points(tmp_path / "pts.csv",
                        np.random.default_rng(4).normal(size=(50, 3)))
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([
        {"kind": "ball", "center": [0.0] * 3, "radius": 1.0},
        {"kind": "ball", "center": [0.5, 0.0, 0.0], "radius": 1.0}]))
    monkeypatch.setattr(bootstrap, "bootstrap_draws", _no_resampling)
    _fails_naming(["bootstrap-compare", "--data", data, "--sets", str(sets),
                   "--out", str(tmp_path / "o")],
                  ["%s set 1: " % sets, "[0.5, 0.0, 0.0]",
                   "only centered balls"], capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec, words", [
    ({"kind": "box", "low": -1.0, "high": [1.0, 1.0]},
     ["box 'low' must be a list of numbers", "-1.0"]),
    ({"kind": "box", "low": [-1.0, -1.0], "high": 1.0},
     ["box 'high' must be a list of numbers", "1.0"]),
    ({"kind": "ball", "center": 0.0, "radius": 1.0},
     ["ball 'center' must be a list of numbers", "0.0"]),
    ({"kind": "halfspace", "normal": 1.0, "offset": 0.0},
     ["halfspace 'normal' must be a list of numbers", "1.0"]),
    ({"kind": "box", "low": [-1.0, "a"], "high": [1.0, 1.0]},
     ["box 'low' must be a list of numbers", "'a'"]),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": [1.0]},
     ["ball 'radius' must be a number", "[1.0]"]),
    ({"kind": "box", "low": [1.0, 0.0], "high": [0.0, 1.0]},
     ["low <= high"]),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": -1.0},
     ["radius must be >= 0"]),
    ({"kind": "halfspace", "normal": [0.0, 0.0], "offset": 0.0},
     ["normal must be nonzero"]),
])
def test_bad_set_value_is_refused(tmp_path, capsys, monkeypatch,
                                              spec, words):
    data = write_points(tmp_path / "pts.csv",
                        np.random.default_rng(4).normal(size=(50, 2)))
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([{"kind": "halfspace", "normal": [1, 0],
                                 "offset": 0.0}, spec]))
    monkeypatch.setattr(bootstrap, "bootstrap_draws", _no_resampling)
    _fails_naming(["bootstrap-compare", "--data", data, "--sets", str(sets),
                   "--out", str(tmp_path / "o")],
                  ["%s set 1: " % sets] + words, capsys)
    assert not (tmp_path / "o").exists()


def test_multi_column_data_without_sets_is_refused(tmp_path, capsys,
                                                   monkeypatch):
    data = write_points(tmp_path / "pts.csv",
                        np.random.default_rng(4).normal(size=(50, 3)))
    monkeypatch.setattr(bootstrap, "bootstrap_draws", _no_resampling)
    _fails_naming(["bootstrap-compare", "--data", data,
                   "--out", str(tmp_path / "o")],
                  ["--sets", "3 columns"], capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tgrid", ["0:1:0", "1:0:0.1", "0:1:-0.1", "0:1",
                                   "0:x:0.1", "0:inf:0.1", "nan:1:0.1"])
def test_bad_tgrid_is_refused(tmp_path, capsys, tgrid):
    _fails_naming(["tstat-study", "--n", "50", "--B", "100",
                   "--tgrid=" + tgrid, "--out", str(tmp_path / "o")],
                  ["--tgrid", repr(tgrid)], capsys)
    assert not (tmp_path / "o").exists()


# PiB-scale grids: numpy refuses each array before allocating any of it
@pytest.mark.parametrize("command, option", [
    ("tstat-study", "--tgrid=-4:4:1e-15"),
    ("cf-scan", "--grid-radii=100000000000000000"),
    ("certify", "--grid-dirs=100000000000000000")])
def test_oversized_grid_is_refused(tmp_path, capsys, command, option):
    if command == "tstat-study":
        argv = [command, "--n", "50", "--B", "100", option,
                "--out", str(tmp_path / "o")]
    else:
        data = write_points(tmp_path / "pts.csv", np.random.default_rng(3)
                            .exponential(size=(40, 2)))
        argv = [command, "--data", data, "--Tmax", "10", option]
    _fails_naming(argv, ["allocate"], capsys)
    assert not (tmp_path / "o").exists()


def test_csv_blank_lines_and_header_rows(tmp_path):
    """Header rows and blank lines are skipped; numbers parse bit for bit
    as Python's float does."""
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300,
                                                          size=(40, 3))
    rows = [",".join(repr(float(v)) for v in row) for row in vals]
    path = tmp_path / "blank.csv"
    path.write_text("x,y,z\n\nunits,m,s\n" + rows[0] + "\n\n"
                    + "\n".join(rows[1:]) + "\n\n\n")
    pts = _load_points(str(path))
    assert pts.shape == (40, 3)
    assert pts.tobytes() == vals.tobytes()


def test_csv_bad_row_after_data_is_rejected(tmp_path, capsys):
    late = tmp_path / "late.csv"
    late.write_text("x\n0.1\n0.5\nn/a\n0.9\n")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.1,0.2\n0.5,0.6,0.7\n")
    for path, word in ((late, "'n/a'"), (ragged, "columns")):
        for command in ("cf-scan", "certify"):
            assert main([command, "--data", str(path), "--Tmax", "10"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert word in captured.err


@pytest.mark.parametrize("text, message", [
    ("x\n1\n2\nfoo\n", "line 4: 'foo' is not a number"),
    ("0.1,0.2\n0.5,0.6,0.7\n", "line 2: 3 columns, expected 2"),
])
def test_csv_bad_row_names_its_file_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["cf-scan", "--data", str(path), "--Tmax", "10"]) == 1
    err = capsys.readouterr().err
    assert err == "error: %s %s\n" % (path, message)
    assert "usecols" not in err


def _fresh(*args):
    """python with args in a fresh interpreter that imports edgelab from
    src/; its output is bytes."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=120)


def test_cli_does_not_import_scipy(tmp_path):
    """scipy, sympy and mpmath are test dependencies only, the Temme
    table is committed, not derived, and the test oracles live in
    tests/: certify, rate-study, tstat-study, bootstrap-compare over a
    box, a ball and a half-space, and expand from data run in a fresh
    interpreter without loading any of them, the table's generator or
    the oracles."""
    data = write_points(tmp_path / "pts.csv",
                        np.array([0.0, 1.0, math.sqrt(2.0)] * 20)[:, None])
    data2 = write_points(tmp_path / "pts2.csv", np.random.default_rng(4)
                         .exponential(size=(60, 2)) - 1.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "centered-exponential", "s": 3,
        "n_grid": [25, 50, 100, 200], "M": 2000, "seed": 0,
        "out": str(tmp_path / "out")}))
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([
        {"kind": "box", "low": [-1.0, -0.5], "high": [1.0, 1.5]},
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.2},
        {"kind": "halfspace", "normal": [1.0, -0.4], "offset": 0.2}]))
    script = """
import sys
import edgelab.cli
data, data2, cfg, sets, out = sys.argv[1:]
for argv in (["certify", "--data", data, "--Tmax", "20",
              "--grid-radii", "32"],
             ["rate-study", "--config", cfg],
             ["tstat-study", "--n", "60", "--B", "2000",
              "--tgrid=-1:1:0.5", "--out", out],
             ["bootstrap-compare", "--data", data2, "--sets", sets,
              "--B", "2000", "--out", out],
             ["expand", "--data", data2, "--s", "3"]):
    assert edgelab.cli.main(argv) in (0, 2), argv
for name in ("scipy", "sympy", "mpmath", "temme_table", "oracles"):
    assert name not in sys.modules, name + " was imported"
"""
    proc = _fresh("-c", script, data, data2, str(cfg), str(sets),
                  str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr.decode()


def test_scans_load_no_resampling_or_expansion_code(tmp_path):
    """certify and cf-scan, run in a fresh interpreter, load neither the
    resampling, expansion, family and harness modules nor the Temme
    table, and start no thread pool."""
    data = write_points(tmp_path / "pts.csv", np.random.default_rng(5)
                        .exponential(size=(60, 2)))
    script = """
import sys
import edgelab.cli
for command in ("certify", "cf-scan"):
    assert edgelab.cli.main([command, "--data", sys.argv[1], "--Tmax", "20",
                             "--grid-radii", "32"]) == 0
loaded = {"edgelab.bootstrap", "edgelab.expansion", "edgelab.families",
          "edgelab.harness", "edgelab._temme",
          "concurrent.futures"} & set(sys.modules)
assert not loaded, sorted(loaded)
"""
    proc = _fresh("-c", script, data)
    assert proc.returncode == 0, proc.stderr.decode()


SUBMODULES = ("bootstrap", "cli", "cramer", "cumulants", "expansion",
              "families", "harness", "jets")
REEXPORTS = {
    "cumulants": ["CumulantSet", "MomentSet",
                  "averaged_standardized_cumulants", "chi_poly",
                  "enumerate_multi_indices", "moments_to_cumulants",
                  "raw_moments_from_points"],
    "expansion": ["EdgeworthExpansion", "SetSpec", "build_expansion",
                  "pj_polynomial", "set_measure"],
    "cramer": ["CharFunctionHandle", "CramerCertificate", "c_r_lower_bound",
               "eval_cf", "failure_prob_bound", "mean_weak_cramer_scan",
               "ustat_certificate", "weak_cramer_scan"],
    "bootstrap": ["EventFlags", "SampleStats", "bootstrap_draws",
                  "empirical_edgeworth", "event_checks", "g_value_and_jet",
                  "sample_stats", "tstat_bootstrap"],
    "families": ["Family", "make_family"],
    "harness": ["StudyRecord", "StudyReport", "emit_report",
                "exact_sum_cdf_mc", "rate_study", "uniform_sweep"],
}


def test_bare_import_loads_no_submodule_and_reaches_each():
    script = """
import sys
import edgelab
assert not [m for m in sys.modules if m.startswith("edgelab.")]
for name in sys.argv[1:]:
    assert getattr(edgelab, name) is sys.modules["edgelab." + name], name
assert not hasattr(edgelab, "no_such_name")
"""
    proc = _fresh("-c", script, *SUBMODULES)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("module", sorted(REEXPORTS))
def test_reexported_names_are_the_submodules_objects(module):
    home = importlib.import_module("edgelab." + module)
    for name in REEXPORTS[module]:
        assert getattr(edgelab, name) is getattr(home, name), name


def test_one_parser_serves_a_sequence_of_commands(tmp_path, capsys):
    """main builds its parser once per process: after an invalid argv,
    certify, cf-scan, rate-study and expand write in this process the
    bytes each writes in a fresh one."""
    data = write_points(tmp_path / "pts.csv",
                        np.array([0.0, 1.0, math.sqrt(2.0)] * 20)[:, None])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "centered-exponential", "s": 3,
        "n_grid": [25, 50, 100, 200], "M": 2000, "seed": 0,
        "out": str(tmp_path / "rate")}))
    reports = [tmp_path / "rate" / name
               for name in ("rate_study.csv", "rate_study.json")]

    def take_reports():
        """The report bytes, None where absent; the files are removed."""
        taken = [path.read_bytes() if path.exists() else None
                 for path in reports]
        for path in reports:
            path.unlink(missing_ok=True)
        return taken

    commands = [
        ["certify", "--data", data, "--Tmax", "20", "--grid-radii", "32"],
        ["cf-scan", "--data", data, "--Tmax", "20", "--grid-radii", "32",
         "--c", "0.05"],
        ["rate-study", "--config", str(cfg)],
        ["expand", "--family", "gamma", "--n", "50", "--s", "4"]]
    fresh = []
    for argv in commands:
        proc = _fresh("-m", "edgelab.cli", *argv)
        assert proc.returncode in (0, 2), proc.stderr.decode()
        fresh.append((proc.returncode, proc.stdout, take_reports()))

    with pytest.raises(SystemExit) as exc:
        main(["cf-scan", "--grid-radii", "many", "--data", data])
    assert exc.value.code == 2
    assert cli.build_parser() is cli.build_parser()
    for argv, (rc, stdout, files) in zip(commands, fresh):
        capsys.readouterr()
        assert main(argv) == rc, argv
        assert capsys.readouterr().out.encode() == stdout, argv
        assert take_reports() == files, argv


def test_non_finite_data_is_rejected(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("0.1,0.2\n0.5,nan\n0.9,1.1\n")
    for command in ("cf-scan", "certify"):
        assert main([command, "--data", str(path), "--Tmax", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: all coordinates must be finite" in captured.err


# -- one summary per data set -------------------------------------------------

def _count_calls(monkeypatch, counts):
    """Count calls to sample_stats and raw_moments_from_points wherever an
    edgelab module looks them up."""
    for name in counts:
        orig = getattr(bootstrap, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        for module in (bootstrap, cumulants, harness, cli):
            if module.__dict__.get(name) is orig:
                monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("case, want", [
    ("bootstrap-compare", (1, 2)), ("tstat-study", (1, 1)), ("cell", (1, 1))])
def test_each_data_set_is_summarized_once(tmp_path, capsys, monkeypatch,
                                          case, want):
    """One SampleStats per data set: bootstrap-compare --sets on d = 3 data
    reads one moment table for its expansion and one for its events; a
    t-statistic study and a bootstrap-mode rate-study cell read one."""
    counts = {"sample_stats": 0, "raw_moments_from_points": 0}
    _count_calls(monkeypatch, counts)
    out = str(tmp_path / "o")
    if case == "bootstrap-compare":
        data = write_points(tmp_path / "pts.csv",
                            np.random.default_rng(5).exponential(
                                size=(60, 3)))
        sets = tmp_path / "sets.json"
        sets.write_text(json.dumps([{"kind": "halfspace",
                                     "normal": [1.0, 0.0, 0.5],
                                     "offset": 0.2}]))
        assert main(["bootstrap-compare", "--data", data, "--sets",
                     str(sets), "--B", "1000", "--s", "4",
                     "--out", out]) == 0
    elif case == "tstat-study":
        assert main(["tstat-study", "--n", "60", "--B", "1000",
                     "--tgrid=-1:1:0.5", "--out", out]) == 0
    else:
        t_grid = harness.default_t_grid()
        harness._cell(make_family("centered-exponential"), 40, 0, [2, 3],
                      "bootstrap", None, 1000, t_grid, 3,
                      harness._hermite_interval(3, -math.inf, t_grid))
    assert (counts["sample_stats"], counts["raw_moments_from_points"]) == want

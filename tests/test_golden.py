"""Every case of the golden record (tests/golden.py) reproduces its
recorded outputs."""

import json

import pytest

import golden


def test_the_record_holds_every_case_and_nothing_else():
    assert sorted(p.stem for p in golden.GOLDEN.glob("*.json")) \
        == sorted(golden.CASES)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_outputs_match_the_golden_record(name, tmp_path):
    want = json.loads((golden.GOLDEN / (name + ".json")).read_text())
    got = golden.run_case(golden.CASES[name], tmp_path)
    assert golden.compare(want, got) == []


def test_the_comparison_tolerates_rounding_only():
    assert golden.differences({"v": 1.0, "n": 3}, {"v": 1.0 + 1e-15, "n": 3}) \
        == []
    assert golden.differences([1.0], [1.0 + 1e-9]) != []
    assert golden.differences([0.0], [5e-14]) == []
    assert golden.differences([0.0], [1e-12]) != []
    # the scan's witness is located to about 1.5e-8 relative
    assert golden.differences({"witness": [1.0]}, {"witness": [1.0 + 1e-8]}) \
        == []
    assert golden.differences({"witness": [1.0]}, {"witness": [1.0 + 1e-6]}) \
        != []
    assert golden.differences({"n": 3}, {"n": 3.0}) != []
    assert golden.differences({"a": 1, "b": 2}, {"b": 2, "a": 1}) != []
    assert golden.parse("x.csv", "t,v\nt=1,0.5\n") == [["t", "v"],
                                                       ["t=1", 0.5]]

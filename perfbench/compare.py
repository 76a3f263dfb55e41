"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py --runs 10 [--first-seed 1000]

Every run is the command of BENCHMARK.json with its own seed, run for the
file's run_seconds.  The runs of the sets alternate, so a slow phase of
the machine falls on both.  For each workload and end-to-end metric the
table gives each set's median, quartiles and spread (quartile distance
over median), the change of the second median against the first, and
whether the sets agree within the metric's bound: each spread within the
bound and the medians within the bound of each other.  The spread of
setup_s is printed but not gated, only its medians: each run's figure is
the median of just three process starts, and its spread on a 2-vCPU host
(9-30%, see the README) exceeds any bound that would still catch a
regression.  Every run must also be correct and fail the same share of
its operations.
The record goes to .perfbench-out/compare-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError("%s seed %d exited with %d"
                           % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("quartiles need at least two runs per set")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    runs = {(s, w): [] for s in range(2) for w in names}
    for i in range(args.runs):
        for s in range(2):
            for w in names:
                seed = args.first_seed + s * args.runs + i
                r = run_once(bench, w, seed)
                r["seed"] = seed
                runs[s, w].append(r)
                print("set %d run %d %-8s seed %d: %s%s (%.0f s)" % (
                    s + 1, i + 1, w, seed, " ".join(
                        "%s=%.4g" % (m, v["value"])
                        for m, v in r["metrics"].items()),
                    "" if r["correct"] else " INCORRECT",
                    r["elapsed_s"]), flush=True)

    ok = True
    table = []
    print("\n%-9s %-12s %-34s %-34s %8s %6s %s" % (
        "workload", "metric", "set 1 median [q1, q3] spread",
        "set 2 median [q1, q3] spread", "change", "bound", "verdict"))
    for w in names:
        both = runs[0, w] + runs[1, w]
        for m in bench["end_to_end"]:
            cells, meds, steady = [], [], True
            for s in range(2):
                vals = [r["metrics"][m["name"]]["value"] for r in runs[s, w]]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2
                meds.append(q2)
                # the spread of set-up time is reported but not gated
                if m["name"] != "setup_s" and spread > m["bound"]:
                    steady = False
                cells.append("%.4g [%.4g, %.4g] %.1f%%"
                             % (q2, q1, q3, 100 * spread))
            change = meds[1] / meds[0] - 1
            agree = steady and abs(change) <= m["bound"]
            ok &= agree
            table.append({"workload": w, "metric": m["name"], "sets": cells,
                          "bound": m["bound"], "steady": steady,
                          "change": change, "agree": agree})
            print("%-9s %-12s %-34s %-34s %+7.1f%% %6.2f %s%s" % (
                w, m["name"], cells[0], cells[1], 100 * change, m["bound"],
                "agree" if agree else "DISAGREE",
                " (spread not gated)" if m["name"] == "setup_s" else ""))
        shares = {Fraction(r["failed"], r["attempted"]) for r in both}
        incorrect = [r["seed"] for r in both if not r["correct"]]
        ok &= len(shares) == 1 and not incorrect
        print("%-9s failed share %s in every run: %s" % (
            w, " ".join(str(f) for f in sorted(shares)),
            "yes" if len(shares) == 1 else "NO"))
        print("%-9s correct in every run: %s" % (
            w, "yes" if not incorrect else "NO (seeds %s)" % " ".join(
                map(str, incorrect))))
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / ("compare-%d.json" % time.time())
    path.write_text(json.dumps({"runs": {"%d/%s" % k: v
                                         for k, v in runs.items()},
                                "table": table}, indent=1))
    print("record: %s" % path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

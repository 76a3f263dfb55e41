"""Run one edgelab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rate --seed 1 --seconds 15 --trace 0

The run makes the workload's inputs from the seed, then:

1. times SETUP_PROBES fresh processes from their start to the end of
   their warm-up round (setup_s, the median);
2. imports edgelab from `src/` of this checkout and calls
   `edgelab.cli.main` in this process: one warm-up round, then timed
   rounds back to back until --seconds have passed (wall_s, the median
   round; peak_rss_mb, this process's peak resident memory);
3. checks the warm-up round's outputs independently and requires every
   timed round to reproduce them byte for byte (standard error aside).

With --trace 1 it skips the probes, times untraced rounds for half the
time and traced rounds for the other half, and reports the per-layer
metrics of the traced rounds; the spans go to
`.perfbench-out/trace-<workload>-<seed>.json`.  Metric names and units
are those of BENCHMARK.json.  The last line of standard output is the
JSON result; `correct` is false when any operation fails other than by
its known fault.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
OVERHEAD = "trace.overhead_s"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
WORKLOADS = ("rate", "tstat", "setclass", "certify")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fix_threads() -> None:
    """Allow BLAS and OpenMP at most one thread per available core, the
    libraries' own default made explicit; edgelab's `workers` settings
    stay at the program's defaults."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    os.environ.pop("EDGELAB_OUT", None)


def probe_setup(spec: Path) -> float:
    """Seconds from starting a fresh process to the end of its warm-up."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         str(spec)], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe did not finish in %d s"
                           % PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe exited with %d" % proc.returncode)
    return float(out.strip().splitlines()[-1]) - start


def run_round(cli, ops) -> list:
    """Call the CLI once per operation; return (exit code, stdout, stderr)
    triples."""
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
        results.append((rc, out.getvalue(), err.getvalue()))
    return results


def collect(ops, results) -> list:
    """Outputs of one round, one dict per operation."""
    outs = []
    for op, (rc, stdout, stderr) in zip(ops, results):
        out = {"rc": rc, "stdout": stdout.encode(), "stderr": stderr}
        out.update((f, f.read_bytes()) for f in op.files)
        outs.append(out)
    return outs


def same(out: dict, reference: dict) -> bool:
    """Whether a round reproduced the reference.  Standard error is left
    out: Python prints a warning only the first time it is raised."""
    return ({k: v for k, v in out.items() if k != "stderr"}
            == {k: v for k, v in reference.items() if k != "stderr"})


def timed_rounds(cli, ops, seconds: float, reference) -> tuple:
    """Rounds back to back for `seconds`; returns the round times and,
    per operation, how many rounds did not reproduce the reference."""
    times, differ = [], [0] * len(ops)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = run_round(cli, ops)
        times.append(time.perf_counter() - t0)
        for k, out in enumerate(collect(ops, results)):
            differ[k] += not same(out, reference[k])
        if time.perf_counter() - start >= seconds:
            return times, differ


def import_program():
    sys.path.insert(0, str(SRC))
    import edgelab
    import edgelab.cli
    if Path(edgelab.__file__).resolve().parent != SRC / "edgelab":
        raise RuntimeError("imported edgelab from %s, not from %s"
                           % (edgelab.__file__, SRC))
    return edgelab


def measure(args, ops, work: Path) -> dict:
    if not args.trace:
        spec = work / "probe.json"
        spec.write_text(json.dumps({"src": str(SRC),
                                    "argv": [op.argv for op in ops]}))
        setup = [probe_setup(spec) for _ in range(SETUP_PROBES)]
    edgelab = import_program()
    cli = edgelab.cli
    reference = collect(ops, run_round(cli, ops))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        from tracing import Tracer
        names = [m["name"] for m in bench["per_layer"]
                 if m["name"] != OVERHEAD]
        plain, differ = timed_rounds(cli, ops, args.seconds / 2,
                                     reference)
        tracer = Tracer(edgelab)
        tracer.install()
        try:
            traced, differ2 = timed_rounds(cli, ops, args.seconds / 2,
                                           reference)
        finally:
            tracer.uninstall()
        differ = [a + b for a, b in zip(differ, differ2)]
        rounds = 1 + len(plain) + len(traced)
        values = tracer.metrics(names, len(traced))
        values[OVERHEAD] = statistics.median(traced) \
            - statistics.median(plain)
        path = OUT / ("trace-%s-%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(tracer.dump()))
        print("spans: %d in %s" % (len(tracer.spans), path))
    else:
        times, differ = timed_rounds(cli, ops, args.seconds, reference)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds = 1 + len(times)
        values = {"wall_s": statistics.median(times),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_kb / 1024.0}
        print("rounds: %d timed, %s s each" % (
            len(times), " ".join("%.3f" % t for t in times)))
        print("set-up probes: %s s" % " ".join("%.3f" % t for t in setup))

    section = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}

    failed, correct = 0, True
    for op, out, n_differ in zip(ops, reference, differ):
        problems = op.check(out)
        # rounds that reproduce a failing warm-up round fail with it
        failed += rounds if problems else n_differ
        for p in problems:
            if op.shows_known_fault(p):
                print("%s: FAIL (known fault, counted as failed) %s"
                      % (op.name, p))
            else:
                print("%s: FAIL %s" % (op.name, p))
                correct = False
        if n_differ:
            print("%s: FAIL %d of %d rounds differ from the warm-up round"
                  % (op.name, n_differ, rounds - 1))
            correct = False
    return {"correct": correct, "attempted": rounds * len(ops),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgelab" / "cli.py").is_file():
        print("perfbench: no edgelab source at %s" % SRC, file=sys.stderr)
        return 2
    fix_threads()
    import workloads
    work = OUT / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        result = measure(args, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

Subcommands: cf-scan, certify, bootstrap-compare, tstat-study, rate-study,
uniform-sweep, expand.  Exit code 0 on success, 2 when every produced
record is inconclusive, 1 on error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

# The scans need only these; each other subcommand imports the modules it
# runs, so that cf-scan and certify load no resampling or expansion code.
from . import cramer
from .cumulants import as_points


def _out_dir(path: str | None) -> str:
    base = path or os.environ.get("EDGELAB_OUT", ".")
    os.makedirs(base, exist_ok=True)
    return base


def _print_json(obj, path: str | None = None) -> None:
    """Print obj as one line of strict JSON, also to the file path if
    given."""
    text = json.dumps(obj, allow_nan=False)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _need(obj, key: str, where: str):
    """obj[key], or a ValueError naming the missing key."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError("%s has no %r" % (where, key))
    return obj[key]


def _not_a_number(cells):
    """The first cell that is not a number, or None."""
    for v in cells:
        try:
            float(v)
        except ValueError:
            return v
    return None


def _load_points(path: str) -> np.ndarray:
    """Points from a CSV file, one per row, after any non-numeric header
    rows; blank lines are skipped.  A bad row is reported by its 1-based
    line in the file."""
    header = 0
    with open(path, newline="") as fh:
        for line in fh:
            cells = next(csv.reader([line]), [])
            if cells and _not_a_number(cells) is None:
                break
            header += 1
        else:
            raise ValueError("no numeric rows in %s" % path)
    try:
        pts = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=header,
                         comments=None, quotechar='"')
    except ValueError as exc:
        raise ValueError(_bad_row(path, header, len(cells))
                         or "%s: %s" % (path, exc)) from None
    return as_points(pts)


def _bad_row(path: str, header: int, width: int):
    """Where and why a data row after the header is not `width` numbers,
    or None when every row is."""
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            cells = next(csv.reader([line]), [])
            if lineno <= header or not cells:
                continue
            bad = _not_a_number(cells)
            if bad is not None:
                return "%s line %d: %r is not a number" % (path, lineno, bad)
            if len(cells) != width:
                return ("%s line %d: %d columns, expected %d"
                        % (path, lineno, len(cells), width))
    return None


def _reject_constant(name: str):
    raise ValueError("the config holds %s: numbers must be finite" % name)


_SET_KEYS = {"halfline": ("t",), "box": ("low", "high"),
             "ball": ("center", "radius"), "halfspace": ("normal", "offset")}
_VECTOR_KEYS = ("low", "high", "center", "normal")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _set_from_json(obj: dict, where: str, d: int) -> SetSpec:
    """The region of a --sets entry, refused, with the entry named, unless
    each key holds a number or, for a vector key, a list of numbers, the
    region is well formed, it lives in the data's dimension d (a
    half-line (-inf, t] is a 1-d box) and a ball is centered at the
    origin."""
    from .expansion import SetSpec
    kind = _need(obj, "kind", where)
    if kind not in _SET_KEYS:
        raise ValueError("%s: unknown set kind %r" % (where, kind))
    fields = [_need(obj, key, where) for key in _SET_KEYS[kind]]
    for key, v in zip(_SET_KEYS[kind], fields):
        vector = key in _VECTOR_KEYS
        if not (isinstance(v, list) and all(map(_is_number, v))
                if vector else _is_number(v)):
            raise ValueError("%s: %s %r must be %s, not %r" % (
                where, kind, key,
                "a list of numbers" if vector else "a number", v))
    try:
        A = getattr(SetSpec, kind)(*fields)
    except ValueError as exc:       # bounds out of order, radius < 0, ...
        raise ValueError("%s: %s" % (where, exc)) from None
    if A.dimension != d:
        if kind == "halfline":
            raise ValueError("%s: a halfline has dimension 1 but the data "
                             "have dimension %d" % (where, d))
        raise ValueError("%s: %s %r has dimension %d but the data have "
                         "dimension %d" % (where, kind, _SET_KEYS[kind][0],
                                           A.dimension, d))
    if kind == "ball" and any(A.center):
        raise ValueError("%s: ball 'center' %r is not the origin; only "
                         "centered balls are supported"
                         % (where, obj["center"]))
    return A


def _parse_grid(spec: str) -> np.ndarray:
    """The grid lo, lo + step, ... up to hi of a "lo:hi:step" spec."""
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        lo = hi = step = float("nan")
    if not (np.isfinite([lo, hi, step]).all() and lo <= hi and step > 0):
        raise ValueError("--tgrid %r: need lo:hi:step with finite lo <= hi "
                         "and step > 0" % spec)
    return np.arange(lo, hi + step / 2, step)


def _write_comparison(path: str, key: str, labels, q_emp, q_tilde,
                      mc_se) -> float:
    """Write the table key,q_emp,q_tilde,abs_dev,mc_se with one row per
    label and every number the repr of a float; return the largest
    abs_dev.  A deviation that is not a number is refused before anything
    is written."""
    sup, rows = 0.0, []
    for label, qe, qt, se in zip(labels, q_emp, q_tilde, mc_se):
        qe, qt = float(qe), float(qt)
        dev = abs(qe - qt)
        if math.isnan(dev):
            raise ValueError("the deviation at %s %s is not a number "
                             "(q_emp %r, q_tilde %r)" % (key, label, qe, qt))
        sup = max(sup, dev)
        rows.append([label, repr(qe), repr(qt), repr(dev), repr(float(se))])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([key, "q_emp", "q_tilde", "abs_dev", "mc_se"])
        w.writerows(rows)
    return sup


# ---------------------------------------------------------------------------
# subcommands

def _scan(args):
    if args.cR is not None and not (np.isfinite(args.cR) and args.cR > 0):
        raise ValueError("--cR must be a finite number > 0, not %r"
                         % args.cR)
    h = cramer.CharFunctionHandle(_load_points(args.data))
    return h, cramer.weak_cramer_scan(
        h, b=args.b, R=args.R, T_max=args.Tmax, n_radii=args.grid_radii,
        n_dirs=args.grid_dirs, c=args.c)


def cmd_cf_scan(args) -> int:
    h, cert = _scan(args)
    payload = cert.to_json_dict()
    if args.cR is not None:
        payload["prob_bound"] = cramer.failure_prob_bound(args.cR,
                                                          h.points.shape[0])
    _print_json(payload)
    return 0


def cmd_certify(args) -> int:
    h, cert = _scan(args)
    # pairwise route: wrapped-square bound at the worst scanned frequency
    S, record = cramer.ustat_certificate(h, np.asarray(cert.witness),
                                         args.b, args.R)
    cert.S_value = S
    if (cert.status == "certified-on-grid" and args.c is not None
            and record["implied_margin"] >= args.c):
        cert.status = "certified-by-ustat"
    cR = args.cR
    if cR is None:
        t_grid = np.asarray([e["t"] for e in cert.evidence])
        cR, _ = cramer.c_r_lower_bound(h.points, args.R, t_grid)
    if cR > 0:
        cert.prob_bound = cramer.failure_prob_bound(cR, h.points.shape[0])
    payload = cert.to_json_dict()
    payload["ustat_record"] = record
    payload["c_R"] = cR
    _print_json(payload)
    return 0


def cmd_bootstrap_compare(args) -> int:
    from . import bootstrap as bl
    from .expansion import set_measure
    from .families import make_family
    from .harness import default_t_grid, dkw_halfwidth
    if args.data:
        pts = _load_points(args.data)
    else:
        rng = bl.child_rng(args.seed, 101)
        pts = make_family(args.family).sample(rng, args.n)[:, None]
    d = pts.shape[1]
    if args.sets:
        with open(args.sets) as fh:
            specs = json.load(fh)
        if not (isinstance(specs, list) and specs):
            raise ValueError("%s: --sets needs a nonempty JSON list of "
                             "set specs, not %r" % (args.sets, specs))
        sets = [_set_from_json(o, "%s set %d" % (args.sets, i), d)
                for i, o in enumerate(specs)]
    elif d != 1:
        raise ValueError("the data have %d columns; bootstrap-compare "
                         "needs --sets for data with more than 1 column" % d)
    stats = bl.sample_stats(pts)
    flags = bl.event_checks(stats, args.s, rho_bar=args.rho_bar, c1=1e-6,
                            c2=args.rho_bar)
    e = bl.empirical_edgeworth(stats, args.s)
    if args.sets:
        labels = [json.dumps(o) for o in specs]
        counts = bl.bootstrap_counts(stats, args.B, lambda z: np.array(
            [np.count_nonzero(A.contains(z)) for A in sets]), seed=args.seed)
        q_tilde = [set_measure(e, A) for A in sets]
    else:
        grid = default_t_grid()
        labels = ["t=%g" % t for t in grid]
        counts = bl.bootstrap_counts(stats, args.B, lambda z: (
            bl.counts_at_or_below(z[:, 0], grid)), seed=args.seed)
        q_tilde = e.cdf_1d(grid)
    q_emp = counts / args.B
    out_dir = _out_dir(args.out)
    csv_path = os.path.join(out_dir, "bootstrap_compare.csv")
    sup = _write_comparison(csv_path, "set_id", labels, q_emp, q_tilde,
                            itertools.repeat(dkw_halfwidth(args.B)))
    summary = {
        "n": stats.n, "B": args.B, "s": args.s,
        "sup_deviation": sup,
        "events": {"e0": flags.e0, "e1": flags.e1, "e2": flags.e2},
        "csv": csv_path,
    }
    _print_json(summary, os.path.join(out_dir, "bootstrap_compare.json"))
    return 0


def cmd_tstat_study(args) -> int:
    from . import bootstrap as bl
    from .families import make_family
    fam = make_family(args.family)
    rng = bl.child_rng(args.seed, 202)
    w = fam.sample(rng, args.n)
    tgrid = _parse_grid(args.tgrid)
    counts, degenerate = bl.tstat_counts(w, args.B, tgrid, seed=args.seed)
    if degenerate == args.B:
        raise ValueError("every one of the %d bootstrap draws has zero "
                         "variance, so no t-statistic was drawn to count; "
                         "raise --B or --n" % args.B)
    q_emp = counts / (args.B - degenerate)
    stats = bl.sample_stats(np.stack([w, w ** 2], axis=1))
    e = bl.empirical_edgeworth(stats, args.s)
    q_tilde, errs, singular = bl.edgeworth_tstat_exact(tgrid, e, stats)
    out_dir = _out_dir(args.out)
    csv_path = os.path.join(out_dir, "tstat_study.csv")
    sup = _write_comparison(csv_path, "t", [repr(float(t)) for t in tgrid],
                            q_emp, q_tilde, errs)
    summary = {
        "family": args.family, "n": args.n, "B": args.B, "s": args.s,
        "sup_deviation": sup,
        "degenerate_draws": degenerate,
        "singular_mass": singular,
        "csv": csv_path,
    }
    _print_json(summary, os.path.join(out_dir, "tstat_study.json"))
    return 0


def _run_config(args, name: str, required: str, run) -> int:
    """Load the JSON config, run(cfg, settings) for the report, where
    settings holds the keywords both drivers take, write the report as
    <name>.csv and <name>.json and print its slopes; exit 2 when every
    sup_dev record is inconclusive."""
    from .harness import emit_report
    with open(args.config) as fh:
        cfg = json.load(fh, parse_constant=_reject_constant)
    _need(cfg, required, args.config)
    settings = dict(s=cfg.get("s", 3),
                    n_grid=_need(cfg, "n_grid", args.config),
                    M=cfg.get("M", 1_000_000), seed=cfg.get("seed", 0),
                    mode=cfg.get("mode", "analytic"), B=cfg.get("B"),
                    reps=cfg.get("reps", 1))
    report = run(cfg, settings)
    out_dir = _out_dir(cfg.get("out"))
    emit_report(report, "csv", os.path.join(out_dir, name + ".csv"))
    emit_report(report, "json", os.path.join(out_dir, name + ".json"))
    _print_json(report.json_slopes())
    flags = [r.flag for r in report.records if r.metric.endswith("sup_dev")]
    return 2 if flags and all(f == "inconclusive" for f in flags) else 0


def _theta(obj: dict, where: str) -> dict:
    """obj's family parameters, {} when it has no "theta"; refused unless
    they are a JSON object."""
    theta = obj.get("theta", {})
    if not isinstance(theta, dict):
        raise ValueError("%s: 'theta' must be a JSON object, not %r"
                         % (where, theta))
    return theta


def cmd_rate_study(args) -> int:
    from .families import make_family
    from .harness import rate_study

    def run(cfg, settings):
        fam = make_family(cfg["family"], **_theta(cfg, args.config))
        return rate_study(fam, **settings)
    return _run_config(args, "rate_study", "family", run)


def cmd_uniform_sweep(args) -> int:
    from .families import make_family
    from .harness import uniform_sweep

    def run(cfg, settings):
        where = "a family in %s" % args.config
        fams = [make_family(_need(f, "name", where), **_theta(f, where))
                for f in cfg["families"]]
        return uniform_sweep(fams, rho_cap=cfg.get("rho_cap"), **settings)
    return _run_config(args, "uniform_sweep", "families", run)


def cmd_expand(args) -> int:
    from . import bootstrap as bl
    from .expansion import build_expansion
    from .families import make_family
    if args.data:
        stats = bl.sample_stats(_load_points(args.data))
        e = bl.empirical_edgeworth(stats, args.s)
    else:
        fam = make_family(args.family)
        cums = fam.standardized_cumulants(args.s)
        e = build_expansion(cums, args.n, args.s)
    _print_json(e.to_json_dict())
    return 0


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The edgelab parser, built once per process: parsing leaves it as it
    was, so main reuses it."""
    p = argparse.ArgumentParser(prog="edgelab")
    sub = p.add_subparsers(dest="command", required=True)

    def scan_args(sp):
        sp.add_argument("--data", required=True, help="CSV, one point per row")
        sp.add_argument("--b", type=float, default=1.0)
        sp.add_argument("--R", type=float, default=1.0)
        sp.add_argument("--Tmax", type=float, default=200.0)
        sp.add_argument("--c", type=float, default=None,
                        help="target margin; omitted = report the grid min")
        sp.add_argument("--grid-radii", type=int, default=512)
        sp.add_argument("--grid-dirs", type=int, default=None)
        sp.add_argument("--cR", type=float, default=None)

    sp = sub.add_parser("cf-scan", help="scan the weak Cramer inequality")
    scan_args(sp)
    sp.set_defaults(fn=cmd_cf_scan)

    sp = sub.add_parser("certify",
                        help="scan plus pairwise wrapped-square certificate")
    scan_args(sp)
    sp.set_defaults(fn=cmd_certify)

    def resample_args(sp, n):
        sp.add_argument("--family", default="centered-exponential")
        sp.add_argument("--n", type=int, default=n)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--B", type=int, default=100_000)
        sp.add_argument("--s", type=int, default=3)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("bootstrap-compare",
                        help="bootstrap draws vs empirical expansion")
    resample_args(sp, 400)
    sp.add_argument("--data", default=None)
    sp.add_argument("--sets", default=None,
                    help="JSON file of set specs: box, ball, halfspace, or "
                         "halfline (the box (-inf, t])")
    sp.add_argument("--rho-bar", type=float, default=100.0)
    sp.set_defaults(fn=cmd_bootstrap_compare)

    sp = sub.add_parser("tstat-study",
                        help="bootstrap-t CDF vs expansion measure")
    resample_args(sp, 200)
    sp.add_argument("--tgrid", default="-4:4:0.05")
    sp.add_argument("--mc-budget", type=int, default=None,
                    help="no effect: the expansion curve is computed by "
                         "quadrature; removed once the benchmark stops "
                         "passing it")
    sp.set_defaults(fn=cmd_tstat_study)

    sp = sub.add_parser("rate-study", help="rate study from a JSON config")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_rate_study)

    sp = sub.add_parser("uniform-sweep",
                        help="max-over-theta rate study from a JSON config")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_uniform_sweep)

    sp = sub.add_parser("expand", help="print an expansion coefficient table")
    sp.add_argument("--data", default=None)
    sp.add_argument("--family", default="centered-exponential")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--s", type=int, default=4)
    sp.set_defaults(fn=cmd_expand)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: numpy refuses an array, such as an oversized grid,
        # that cannot be allocated
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

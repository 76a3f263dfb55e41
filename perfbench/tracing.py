"""Per-layer tracing from outside the program.

A Tracer rebinds each traced edgelab function or method wherever its
callers look it up (module globals such as `edgelab.harness.
bootstrap_draws`, class attributes such as `Family.sum_sample`) to a
wrapper that records a span: name, start, end, parent, and the work the
call was given.  Spans stay in memory until the run writes them out.
Nothing is rebound until `install` is called, so untraced runs execute
the program's own functions.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np


def _arg(i, name):
    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[i]
    return get


def _points_of(args, kwargs):
    return len(np.atleast_2d(_arg(1, "x")(args, kwargs)))


def _cf_terms(args, kwargs):
    points = args[0].points
    T = np.atleast_2d(_arg(1, "T")(args, kwargs))
    return len(T) * len(points) if points is not None else 0


def _pairs(args, kwargs):
    n = len(_arg(0, "points")(args, kwargs))
    return n * (n - 1) * len(np.atleast_2d(_arg(2, "t_grid")(args, kwargs)))


def _conclusive(args, kwargs, report):
    recs = [r for r in report.records if r.metric.endswith("sup_dev")]
    return sum(r.flag == "" for r in recs), len(recs)


def _kept(args, kwargs, result):
    return len(result[0]), _arg(1, "B")(args, kwargs)


def _valid(args, kwargs, result):
    budget = _arg(5, "budget")(args, kwargs)
    return budget - result[2], budget


# (span name, module or class path, attribute, work per call, outcome)
# `work` counts what the call was asked to do; `outcome` returns
# (useful, attempted) from the result, for ratios of useful work.
TARGETS = [
    ("cli.main", "cli", "main", None, None),
    ("harness.rate_study", "harness", "rate_study", None, _conclusive),
    ("harness.exact_sum_cdf_mc", "harness", "exact_sum_cdf_mc", None, None),
    ("harness.emit_report", "harness", "emit_report", None, None),
    ("families.sum_sample", "families.Family", "sum_sample",
     _arg(2, "M"), None),
    ("families.sample", "families.Family", "sample", None, None),
    ("bootstrap.tstat_bootstrap", "bootstrap", "tstat_bootstrap",
     _arg(1, "B"), _kept),
    ("bootstrap.bootstrap_draws", "bootstrap", "bootstrap_draws",
     _arg(1, "B"), None),
    ("bootstrap.edgeworth_tstat_curve", "bootstrap", "edgeworth_tstat_curve",
     None, _valid),
    ("bootstrap.empirical_edgeworth", "bootstrap", "empirical_edgeworth",
     None, None),
    ("bootstrap.event_checks", "bootstrap", "event_checks", None, None),
    ("bootstrap.sample_stats", "bootstrap", "sample_stats", None, None),
    ("cumulants.raw_moments_from_points", "cumulants",
     "raw_moments_from_points", None, None),
    ("cumulants.moments_to_cumulants", "cumulants", "moments_to_cumulants",
     None, None),
    ("expansion.set_measure", "expansion", "set_measure", None, None),
    ("expansion.SetSpec.contains", "expansion.SetSpec", "contains",
     None, None),
    ("expansion.weight", "expansion.EdgeworthExpansion", "weight",
     _points_of, None),
    ("expansion.cdf_1d", "expansion.EdgeworthExpansion", "cdf_1d",
     None, None),
    ("expansion.build_expansion", "expansion", "build_expansion", None, None),
    ("cramer.weak_cramer_scan", "cramer", "weak_cramer_scan", None, None),
    ("cramer.ustat_certificate", "cramer", "ustat_certificate", None, None),
    ("cramer.CharFunctionHandle.values", "cramer.CharFunctionHandle",
     "values", _cf_terms, None),
    ("cramer.c_r_lower_bound", "cramer", "c_r_lower_bound", _pairs, None),
]

# Per-layer statistics, by the suffix of a metric's name; the rest of the
# name is the span.  Per traced round: "s" busy seconds, "self_s" busy
# seconds not covered by child spans, "calls" calls; "_per_s" work per busy
# second; "_ratio" useful outcomes over attempts.
STATISTICS = ("self_s", "calls", "s")


def _statistic(metric: str):
    """(span, statistic) that a per-layer metric name stands for."""
    span, last = metric.rsplit(".", 1)
    if last.endswith("_per_s"):
        return span, "rate"
    if last.endswith("_ratio"):
        return span, "ratio"
    if last in STATISTICS:
        return span, last
    raise ValueError("per-layer metric %r has no known statistic" % metric)


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans of the TARGETS while installed."""

    def __init__(self, package):
        self.package = package
        # span: [name, start, end, parent index, work, useful, attempted]
        self.spans = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrapper(self, name, orig, work, outcome):
        tracer = self
        by_kind = name == "expansion.set_measure"

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            label = name
            if by_kind:
                label += "." + _arg(1, "A")(args, kwargs).kind
            span = [label, 0.0, 0.0,
                    stack[-1] if stack else -1,
                    work(args, kwargs) if work else 0, 0, 0]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if outcome:
                span[5], span[6] = outcome(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Rebind every target in its own module and wherever another
        edgelab module imported it by name."""
        modules = [getattr(self.package, m) for m in
                   ("cli", "harness", "bootstrap", "families", "cumulants",
                    "expansion", "cramer", "jets")]
        for name, path, attr, work, outcome in TARGETS:
            owner = _resolve(self.package, path)
            orig = owner.__dict__[attr]
            traced = self._wrapper(name, orig, work, outcome)
            sites = [owner] + [m for m in modules if m is not owner
                               and m.__dict__.get(attr) is orig]
            for site in sites:
                self._saved.append((site, attr, orig))
                setattr(site, attr, traced)

    def uninstall(self):
        for site, attr, orig in reversed(self._saved):
            setattr(site, attr, orig)
        self._saved.clear()

    def metrics(self, names, rounds: int) -> dict:
        """Per-layer figures per traced round for the metric `names` (the
        units are the caller's)."""
        known = {t[0] for t in TARGETS}
        by_name = {}
        children = {}
        for i, sp in enumerate(self.spans):
            by_name.setdefault(sp[0], []).append(i)
            if sp[3] >= 0:
                children.setdefault(sp[3], []).append((sp[1], sp[2]))
        out = {}
        for metric in names:
            span, stat = _statistic(metric)
            if span not in known and not span.startswith(
                    "expansion.set_measure."):
                raise ValueError("per-layer metric %r names no traced span"
                                 % metric)
            idx = by_name.get(span, [])
            busy = _union([(self.spans[i][1], self.spans[i][2])
                           for i in idx])
            if stat == "s":
                value = busy / rounds
            elif stat == "self_s":
                value = sum(self.spans[i][2] - self.spans[i][1]
                            - _union(children.get(i, []))
                            for i in idx) / rounds
            elif stat == "calls":
                value = len(idx) / rounds
            elif stat == "rate":
                work = sum(self.spans[i][4] for i in idx)
                value = work / busy if busy > 0 else 0.0
            else:
                attempted = sum(self.spans[i][6] for i in idx)
                value = (sum(self.spans[i][5] for i in idx) / attempted
                         if attempted else 0.0)
            out[metric] = value
        return out

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "work",
                           "useful", "attempted"], "spans": self.spans}


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total

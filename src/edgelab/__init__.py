"""Edgeworth expansions for standardized sums, weak Cramer certificates,
and bootstrap rate studies.

The submodules, and the names re-exported below, are imported on first
access (PEP 562), so that ``import edgelab.cli`` loads only what the CLI
itself imports.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("bootstrap", "cli", "cramer", "cumulants", "expansion",
               "families", "harness", "jets")

_EXPORTS = {
    "cumulants": ("CumulantSet", "MomentSet",
                  "averaged_standardized_cumulants", "chi_poly",
                  "enumerate_multi_indices", "moments_to_cumulants",
                  "raw_moments_from_points"),
    "expansion": ("EdgeworthExpansion", "SetSpec", "build_expansion",
                  "pj_polynomial", "set_measure"),
    "cramer": ("CharFunctionHandle", "CramerCertificate", "c_r_lower_bound",
               "eval_cf", "failure_prob_bound", "mean_weak_cramer_scan",
               "ustat_certificate", "weak_cramer_scan"),
    "bootstrap": ("EventFlags", "SampleStats", "bootstrap_draws",
                  "empirical_edgeworth", "event_checks", "g_value_and_jet",
                  "sample_stats", "tstat_bootstrap"),
    "families": ("Family", "make_family"),
    "harness": ("StudyRecord", "StudyReport", "emit_report",
                "exact_sum_cdf_mc", "rate_study", "uniform_sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        module = importlib.import_module("." + _HOME[name], __name__)
        return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

"""Edgeworth expansions for standardized sums, weak Cramer certificates,
and bootstrap rate studies."""

__version__ = "0.1.0"

from .cumulants import (CumulantSet, MomentSet,
                        averaged_standardized_cumulants, chi_poly,
                        enumerate_multi_indices, moments_to_cumulants,
                        raw_moments_from_points)
from .expansion import (EdgeworthExpansion, SetSpec, build_expansion,
                        pj_polynomial, set_measure)
from .cramer import (CharFunctionHandle, CramerCertificate, c_r_lower_bound,
                     eval_cf, failure_prob_bound, mean_weak_cramer_scan,
                     ustat_certificate, weak_cramer_scan)
from .bootstrap import (EventFlags, SampleStats, bootstrap_draws,
                        empirical_edgeworth, event_checks, g_value_and_jet,
                        sample_stats, tstat_bootstrap)
from .families import Family, make_family
from .harness import (StudyRecord, StudyReport, emit_report, exact_sum_cdf_mc,
                      rate_study, uniform_sweep)

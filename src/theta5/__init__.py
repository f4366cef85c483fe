"""theta5: an exact truncated q-series engine over Q(zeta_5).

Builds theta constants with rational characteristics and Dedekind eta
quotients as exact series in fractional powers of q, verifies a catalog of
level-five identities (quartic derivative-formula analogues, product-series
identities, modular equations, Wronskian formulas) coefficient-by-coefficient,
and provides a floating-point companion for the z-dependent and
residue-theoretic statements.
"""

from .arith import divisor_sum, legendre5, partition_p, sigma
from .catalog import (IdentityEntry, IdentityReport, lookup, report_to_dict,
                      report_to_text, reports_to_json, verify, verify_all)
from .cyclo import CycloQ5, Phase, PhaseNotRepresentable, golden_ratio, sqrt5
from .numeric import (NumericConfig, NumericCheckResult, check_bridge,
                      check_lemma32, check_prop31, check_quasi_periodicity,
                      check_residues, check_zero_location, eta_num,
                      numeric_check_ids, residue_num, run_numeric_check,
                      series_eval_num, theta_num)
from .series import (EqualityResult, FracSeries, IncompatibleConstantPower,
                     NonInvertibleSeries, UnabsorbablePrefactor, series_equal)
from .theta import (CATALOG_CHARS, ThetaChar, char, char_shift_phase, eta_q,
                    eta_quotient, reduce_char, theta_const,
                    theta_const_product)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_CHARS", "CycloQ5", "EqualityResult", "FracSeries",
    "IdentityEntry", "IdentityReport", "IncompatibleConstantPower",
    "NonInvertibleSeries", "NumericCheckResult", "NumericConfig", "Phase",
    "PhaseNotRepresentable", "ThetaChar", "UnabsorbablePrefactor", "char",
    "char_shift_phase", "check_bridge", "check_lemma32", "check_prop31",
    "check_quasi_periodicity", "check_residues", "check_zero_location",
    "divisor_sum", "eta_num", "eta_q", "eta_quotient", "golden_ratio",
    "legendre5", "lookup", "numeric_check_ids", "partition_p", "reduce_char",
    "report_to_dict", "report_to_text", "reports_to_json", "residue_num",
    "run_numeric_check", "series_equal", "series_eval_num", "sigma", "sqrt5",
    "theta_const", "theta_const_product", "theta_num", "verify", "verify_all",
]

"""Computable norms on q-deformed polydisk and ball function algebras.

Truncated series arithmetic for the relations x_i x_j = q x_j x_i, the
weighted coefficient seminorm families on both the deformed and the free
algebra, quotient norms over the commutation ideal, a joint spectral
radius estimator, and a truncated shift-operator representation, plus the
verification suites exercising their interrelations.
"""

from .fock import (
    FockTruncation,
    RepMatrix,
    element_for,
    op_norm,
    rep_element,
    rep_generator,
    vaksman_norm,
    verify_tw_ccr,
)
from .freeseries import (
    FreeElement,
    concat_multiply,
    estimated_radius,
    free_ball_norm,
    free_polydisk_norm,
    radius_partials,
    taylor_norm,
)
from .jsr import (
    JsrEstimate,
    canonical_partials,
    estimate_canonical_jsr,
)
from .parsing import (
    ParseError,
    format_free_element,
    format_qelement,
    parse_free_element,
    parse_qelement,
)
from .qcombinatorics import (
    ball_weight,
    cross_degree_sum,
    degree,
    inv_count,
    log_ball_weight,
    log_w_q,
    monomial_sup,
    multi_indices_of_degree,
    multi_indices_up_to,
    p_proj,
    s_stat,
    sampled_monomial_sup,
    stirling_ratio,
    w_q,
    words_of_degree,
)
from .qspace import (
    FAMILIES,
    IncompatibilityError,
    QElement,
    QParameter,
    WeightRatioScan,
    ball_norm,
    multiply,
    normal_order_word,
    polydisk_norm,
    reversal_iso,
    scale_auto,
    weight_ratio_scan,
)
from .quotient import (
    IdealSlice,
    QuotientResult,
    build_slice,
    canonical_lift,
    quotient_norm_l1,
    quotient_norm_l2,
    slice_rank,
    theoretical_slice_rank,
)
from .verify import SUITES, Check, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "Check",
    "FAMILIES",
    "FockTruncation",
    "FreeElement",
    "IdealSlice",
    "IncompatibilityError",
    "JsrEstimate",
    "ParseError",
    "QElement",
    "QParameter",
    "QuotientResult",
    "RepMatrix",
    "SUITES",
    "SuiteResult",
    "WeightRatioScan",
    "ball_norm",
    "ball_weight",
    "build_slice",
    "canonical_lift",
    "canonical_partials",
    "concat_multiply",
    "cross_degree_sum",
    "degree",
    "element_for",
    "estimate_canonical_jsr",
    "estimated_radius",
    "format_free_element",
    "format_qelement",
    "free_ball_norm",
    "free_polydisk_norm",
    "inv_count",
    "log_ball_weight",
    "log_w_q",
    "monomial_sup",
    "multi_indices_of_degree",
    "multi_indices_up_to",
    "multiply",
    "normal_order_word",
    "op_norm",
    "p_proj",
    "parse_free_element",
    "parse_qelement",
    "polydisk_norm",
    "quotient_norm_l1",
    "quotient_norm_l2",
    "radius_partials",
    "rep_element",
    "rep_generator",
    "reversal_iso",
    "run_suite",
    "s_stat",
    "sampled_monomial_sup",
    "scale_auto",
    "slice_rank",
    "stirling_ratio",
    "taylor_norm",
    "theoretical_slice_rank",
    "vaksman_norm",
    "verify_tw_ccr",
    "w_q",
    "weight_ratio_scan",
    "words_of_degree",
]

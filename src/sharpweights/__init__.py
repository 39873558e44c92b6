"""Sharp constants for reverse-Holder and Muckenhoupt weight classes.

The package computes, in closed form backed by bracketed root solves,
the best possible constants for the embeddings between reverse-Holder
classes, moment (A_q) classes, and their exponential (A_inf) limit,
together with the boundary supremum function that produces them, the
extremal weights that attain them, and an exact subinterval oracle that
verifies every sharpness claim numerically.
"""

from .bellman import (
    Parameters,
    bellman_infinity_value,
    bellman_limit_check,
    bellman_value,
    bellman_value_gamma_form,
    hessian_form,
    tangent_segment,
)
from .domain import INF, BOUNDARY_RTOL, boundary_values, classify_point
from .embedding import EmbeddingResult, ainf_constant, aq_constant, rht_constant
from .errors import DomainError
from .ndim import NDimBound, delta_threshold, epsilon_bound, ndim_aq_bound, ratio_bound_y
from .roots import (
    q_star,
    q_sub,
    r_pair,
    s_pair,
    t_star,
    u_minus,
    u_plus,
)
from .weights import (
    FunctionalKind,
    PowerWeight,
    ess_sup,
    extremal_weight,
    functional_ratio,
    interval_moment,
    log_moment,
    moment,
    rhinf_norm_closed,
    rhp_norm_closed,
    sup_ratio_search,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_RTOL",
    "DomainError",
    "EmbeddingResult",
    "FunctionalKind",
    "INF",
    "NDimBound",
    "Parameters",
    "PowerWeight",
    "ainf_constant",
    "aq_constant",
    "bellman_infinity_value",
    "bellman_limit_check",
    "bellman_value",
    "bellman_value_gamma_form",
    "boundary_values",
    "classify_point",
    "delta_threshold",
    "epsilon_bound",
    "ess_sup",
    "extremal_weight",
    "functional_ratio",
    "hessian_form",
    "interval_moment",
    "log_moment",
    "moment",
    "ndim_aq_bound",
    "q_star",
    "q_sub",
    "r_pair",
    "ratio_bound_y",
    "rhinf_norm_closed",
    "rhp_norm_closed",
    "rht_constant",
    "s_pair",
    "sup_ratio_search",
    "t_star",
    "tangent_segment",
    "u_minus",
    "u_plus",
    "__version__",
]

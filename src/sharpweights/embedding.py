"""Sharp embedding constants between the weight classes.

Each constant is the exact supremum of the target functional over the
reverse-Holder class with norm delta, as an extended real:

    aq_constant   sup of the A_q functional, finite iff q > q_star,
    ainf_constant sup of the exponential A_inf functional, always finite,
    rht_constant  sup of the RH_t ratio (self-improvement), finite iff
                  t < t_star.

Values at or below the critical exponent are exactly +inf (the critical
case included); delta = 1 collapses every constant to exactly 1.  The
large powers are evaluated in log space because q near the critical
exponent makes the direct power overflow long before the value does.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import roots
from .domain import INF, exp_or_inf, require_finite
from .errors import DomainError


class EmbeddingResult(namedtuple("EmbeddingResult", "constant critical_exponent")):
    """A sharp constant plus the critical exponent that governs it."""

    __slots__ = ()

    @property
    def finite(self) -> bool:
        return math.isfinite(self.constant)


def aq_constant(p: float, q: float, delta: float) -> EmbeddingResult:
    """Sharp constant of the embedding into the q-th moment class."""
    qs = roots.q_star(p, delta)
    if not 1.0 < q < INF:
        raise DomainError(f"q must be a finite real above 1, got q = {q}")
    if not q > qs:
        return EmbeddingResult(INF, qs)
    # log((q - 1)/(q - qs)) as a log1p, which keeps its digits as q grows
    c = exp_or_inf((q - 1.0) * math.log1p((qs - 1.0) / (q - qs)) - math.log(qs))
    return EmbeddingResult(c, qs)


def ainf_constant(p: float, delta: float) -> EmbeddingResult:
    """Sharp constant of the embedding into the exponential class."""
    qs = roots.q_star(p, delta)
    c = INF if math.isinf(qs) else exp_or_inf(qs - 1.0 - math.log(qs))
    return EmbeddingResult(c, qs)


def rht_constant(p: float, t: float, delta: float) -> EmbeddingResult:
    """Sharp constant of the self-improvement embedding, for t >= p."""
    require_finite(p, "the self-improvement constant")
    if math.isnan(t) or not t >= p:
        raise DomainError(f"t must be at least p = {p}, got {t}")
    if delta == 1.0:
        return EmbeddingResult(1.0, INF)
    # t_star = p + w with w = -1/s_minus.  Forming the margin from w and
    # t - p keeps it accurate even when it is far below one ulp of the
    # threshold itself, which happens already at moderate p*log(delta).
    w = roots.gehring_gap(p, delta)
    ts = p + w
    if t == p:  # C_t**p = 1/F(s_minus) = delta**p
        return EmbeddingResult(delta, ts)
    if t - p >= w:
        return EmbeddingResult(INF, ts)
    c = (ts - 1.0) / ts * exp_or_inf((math.log(ts) - math.log(w - (t - p))) / t)
    return EmbeddingResult(c, ts)

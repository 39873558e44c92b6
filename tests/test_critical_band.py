"""The critical band is decided with no tolerance: against 60-digit
roots, every float 4 ulp or more outside the band is outside it, and the
constants, the regime and the Bellman value make the same decision at the
floats around each end."""

import math

import pytest

from sharpweights import Parameters, aq_constant, bellman_value, rht_constant

# (p, delta, q_star, q_sub, t_star), the roots to 30 digits
EDGES = [
    (2.0, 2.0, 7.46410161513775458705489268301, 0.535898384862245412945107316988,
     2.154700538379251529018297561),
    (1.5, 1.001, 1.06670534425897129634210677535, 0.939968139428298185484936692156,
     16.6578212048850958690883897119),
    (50.0, 1.5, 1.60700051948679811408773578543, 0.98000000001142275410026484445,
     50.0000000285568852669720250393),
    (3.494644894969285, 304.3017640139326, 4972.34649545594988618254127646,
     0.713847893159704888747096220003, 3.49464489722632681688462293207),
]

STEPS = range(-12, 13)


def ulps_from(root, k):
    """The float k ulp away from the float nearest ``root``."""
    x = root
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def interior(p, delta):
    return (1.0, delta ** (0.5 * p))


@pytest.mark.parametrize("p, delta, qs, qb, ts", EDGES)
def test_aq_constant_is_infinite_exactly_up_to_q_star(p, delta, qs, qb, ts):
    for k in STEPS:
        q = ulps_from(qs, k)
        constant = aq_constant(p, q, delta).constant
        if k <= -4:
            assert constant == math.inf, (k, q)
        # log C_q passes the float range near q_star when q_star is large
        elif k >= 4 and (q - 1.0) * math.log((q - 1.0) / (q - qs)) < 700.0:
            assert math.isfinite(constant), (k, q)


@pytest.mark.parametrize("p, delta, qs, qb, ts", EDGES)
def test_rht_constant_is_infinite_exactly_from_t_star(p, delta, qs, qb, ts):
    for k in STEPS:
        constant = rht_constant(p, ulps_from(ts, k), delta).constant
        if k <= -4:
            assert math.isfinite(constant), k
        elif k >= 4:
            assert constant == math.inf, k


@pytest.mark.parametrize("p, delta, qs, qb, ts", EDGES)
def test_regime_and_value_follow_the_band_at_q_star(p, delta, qs, qb, ts):
    x = interior(p, delta)
    for k in STEPS:
        q = ulps_from(qs, k)
        params = Parameters(p, q, delta)
        finite = math.isfinite(aq_constant(p, q, delta).constant)
        upper = params.regime == "upper"
        assert upper == math.isfinite(bellman_value(params, x)), k
        assert upper or not finite, k
        if abs(k) >= 4:
            assert upper == (k > 0), k


@pytest.mark.parametrize("p, delta, qs, qb, ts", EDGES)
def test_regime_and_value_follow_the_band_at_q_sub(p, delta, qs, qb, ts):
    x = interior(p, delta)
    for k in STEPS:
        params = Parameters(p, ulps_from(qb, k), delta)
        lower = params.regime == "lower"
        assert lower == math.isfinite(bellman_value(params, x)), k
        if abs(k) >= 4:
            assert lower == (k < 0), k

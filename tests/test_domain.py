"""Domain classification and validation."""

import math
import random

import pytest

from sharpweights import DomainError, r_pair
from sharpweights.domain import (
    BOUNDARY_RTOL,
    boundary_values,
    classify_point,
    expm1mx,
    log1pmx,
    validate_delta,
    validate_exponent,
)

import reference


def test_validate_exponent():
    validate_exponent(1.0001)
    validate_exponent(math.inf)
    for bad in (1.0, 0.5, -2.0, math.nan):
        with pytest.raises(DomainError):
            validate_exponent(bad)


def test_validate_delta():
    validate_delta(1.0)
    validate_delta(100.0)
    for bad in (0.999, 0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            validate_delta(bad)


def test_boundary_values_finite_and_inf():
    assert boundary_values(2.0, 2.0, 3.0) == (9.0, 36.0)
    assert boundary_values(math.inf, 2.0, 3.0) == (3.0, 6.0)


def test_classify_interior_and_curves():
    assert classify_point(2.0, 2.0, (1.0, 2.0)) == "interior"
    assert classify_point(2.0, 2.0, (1.0, 1.0)) == "lower"
    assert classify_point(2.0, 2.0, (1.0, 4.0)) == "upper"
    assert classify_point(math.inf, 2.0, (3.0, 6.0)) == "upper"
    assert classify_point(math.inf, 2.0, (3.0, 4.5)) == "interior"


def test_classify_boundary_slack():
    # points a hair off a curve still classify onto it
    eps = 0.5 * BOUNDARY_RTOL
    assert classify_point(2.0, 2.0, (1.0, 1.0 - eps)) == "lower"
    assert classify_point(2.0, 2.0, (1.0, 4.0 * (1.0 + eps))) == "upper"
    # ... but five times the slack is out of the region
    with pytest.raises(DomainError):
        classify_point(2.0, 2.0, (1.0, 4.0 * (1.0 + 5.0 * BOUNDARY_RTOL)))


def test_classify_errors_name_the_inequality():
    with pytest.raises(DomainError, match=r"x1 > 0"):
        classify_point(2.0, 2.0, (0.0, 1.0))
    with pytest.raises(DomainError, match=r"x2 > 0"):
        classify_point(2.0, 2.0, (1.0, -1.0))
    # an infinite coordinate is refused, even where the bounds overflow
    with pytest.raises(DomainError, match=r"finite x1"):
        classify_point(2.0, 2.0, (math.inf, math.inf))
    with pytest.raises(DomainError, match=r"finite x2"):
        classify_point(400.0, 2.0, (10.0, math.inf))
    with pytest.raises(DomainError, match=r"x2 >= x1\^p"):
        classify_point(2.0, 2.0, (2.0, 1.0))
    with pytest.raises(DomainError, match=r"x2 <= \(delta\*x1\)\^p"):
        classify_point(2.0, 2.0, (1.0, 4.1))
    with pytest.raises(DomainError, match=r"x2 <= delta\*x1"):
        classify_point(math.inf, 2.0, (1.0, 2.1))


def test_degenerate_class_pins_the_diagonal():
    assert classify_point(2.0, 1.0, (3.0, 9.0)) == "lower"
    # past the boundary slack but within the upper bound's: still the curve
    assert classify_point(2.0, 1.0, (1.0, 1.000000000001)) == "lower"
    with pytest.raises(DomainError):
        classify_point(2.0, 1.0, (3.0, 9.5))


def test_bounds_past_the_float_range():
    # (delta*x1)**p overflows at this point, which lies well inside the domain
    p, delta, x = 359.68625747631864, 8.77617427932621, (1.3824505996777134, 1.1835603267012838e174)
    assert boundary_values(p, delta, x[0])[1] == math.inf
    assert classify_point(p, delta, x) == "interior"
    r_minus, r_plus = r_pair(p, delta, x)
    assert isinstance(r_minus, float) and isinstance(r_plus, float)
    assert r_minus <= 0.0 <= r_plus
    # an overflowed lower bound lies above every finite x2
    assert boundary_values(400.0, 2.0, 10.0) == (math.inf, math.inf)
    with pytest.raises(DomainError, match=r"x2 >= x1\^p"):
        classify_point(400.0, 2.0, (10.0, 1e300))


def test_series_helpers_within_3_ulp_of_50_digits():
    # the series where the differences cancel, the differences outside; on this
    # seeded grid the worst is 2.73 ulp (expm1mx) and 3.00 ulp (log1pmx)
    rng = random.Random(21)
    ys = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 0.3) for _ in range(2000)]
    xs = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -0.05) for _ in range(1000)]
    xs += [rng.uniform(-0.9, 3.0) for _ in range(1000)]
    for fn, want, points, bound in ((expm1mx, reference.expm1mx, ys, 2.8),
                                    (log1pmx, reference.log1pmx, xs, 3.1)):
        worst = max((reference.rel_err(fn(v), want(v)) / 2.0**-53, v) for v in points)
        assert worst[0] <= bound, (fn.__name__, worst)

"""Embedding constants: worked examples, criticality, monotonicity,
and the supremum provenance over the domain boundary."""

import math
import random

import pytest

from sharpweights import (
    DomainError,
    EmbeddingResult,
    Parameters,
    aq_constant,
    ainf_constant,
    bellman_infinity_value,
    bellman_limit_check,
    bellman_value,
    q_star,
    rht_constant,
)

import reference

SQRT3 = math.sqrt(3.0)


def test_aq_examples():
    assert aq_constant(2.0, 3.0, 2.0).constant == math.inf
    assert aq_constant(2.0, 3.0, 2.0).finite is False
    assert aq_constant(math.inf, 3.0, 2.0).constant == pytest.approx(2.0, rel=1e-12)
    assert aq_constant(2.0, 10.0, 1.0).constant == 1.0


def test_aq_oracle_value():
    res = aq_constant(2.0, 10.0, 2.0)
    assert res.constant == pytest.approx(11967.912848418276852, rel=1e-9)
    assert res.critical_exponent == pytest.approx(4.0 + 2.0 * SQRT3, abs=1e-10)
    assert res.finite is True


def test_aq_critical_edge_is_infinite():
    qs = q_star(2.0, 2.0)
    assert aq_constant(2.0, qs, 2.0).constant == math.inf
    assert aq_constant(2.0, qs * (1.0 - 1e-9), 2.0).constant == math.inf
    assert math.isfinite(aq_constant(2.0, qs * (1.0 + 1e-6), 2.0).constant)


def test_ainf_examples():
    assert ainf_constant(2.0, 1.0).constant == 1.0
    assert ainf_constant(7.0, 1.0).constant == 1.0
    assert ainf_constant(math.inf, 2.0).constant == pytest.approx(math.e / 2.0, rel=1e-12)
    expected = math.exp(3.0 + 2.0 * SQRT3) / (4.0 + 2.0 * SQRT3)
    assert ainf_constant(2.0, 2.0).constant == pytest.approx(expected, rel=1e-10)


def test_rht_examples():
    assert rht_constant(2.0, 2.0, 2.0).constant == pytest.approx(2.0, rel=1e-9)
    assert rht_constant(2.0, 3.0, 2.0).constant == math.inf
    assert rht_constant(2.0, 2.0, 1.0).constant == 1.0
    assert rht_constant(2.0, 2.0, 1.0).finite is True


def test_rht_oracle_value():
    res = rht_constant(2.0, 10.0 / 3.0, 1.05)
    assert res.constant == pytest.approx(1.2051215469379623967, rel=1e-9)
    assert res.critical_exponent == pytest.approx(4.279648999660727376, rel=1e-10)


def test_rht_self_embedding_random():
    rng = random.Random(11)
    for _ in range(30):
        p = rng.uniform(1.2, 20.0)
        d = rng.uniform(1.01, 10.0)
        assert rht_constant(p, p, d).constant == pytest.approx(d, rel=1e-9)


def test_rht_just_above_t_equal_p_approaches_delta():
    # t = p returns delta without solving; just above it the general
    # formula and the left-branch root must give delta in the limit
    rng = random.Random(12)
    for _ in range(30):
        p = rng.uniform(1.2, 6.0)
        d = rng.uniform(1.01, 3.0)
        assert rht_constant(p, p * (1.0 + 1e-9), d).constant == pytest.approx(d, rel=1e-6)


@pytest.mark.parametrize("p, d", [(100.0, 1000.0), (300.0, 10.0), (300.0, 1000.0)])
def test_rht_at_t_equal_p_is_delta_for_large_p_log_delta(p, d):
    # C_t**p = 1/F(s_minus) = delta**p at t = p, however far out s_minus is
    assert rht_constant(p, p, d).constant == d


def test_domain_errors():
    with pytest.raises(DomainError):
        aq_constant(2.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        aq_constant(2.0, 0.9, 2.0)
    with pytest.raises(DomainError):
        aq_constant(2.0, 3.0, 0.9)
    with pytest.raises(DomainError):
        rht_constant(2.0, 1.5, 2.0)
    with pytest.raises(DomainError):
        rht_constant(math.inf, 3.0, 2.0)
    with pytest.raises(DomainError):
        ainf_constant(1.0, 2.0)


def test_aq_strictly_decreasing_in_q():
    qs = q_star(2.0, 2.0)
    values = [aq_constant(2.0, q, 2.0).constant for q in (qs + 0.1, 8.0, 10.0, 20.0, 100.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] > 1e3


def test_jensen_ordering():
    for p in (1.5, 2.0, 3.0, math.inf):
        for d in (1.1, 2.0, 5.0):
            ceiling = ainf_constant(p, d).constant
            qs = q_star(p, d)
            for q in (qs * 1.01, qs * 1.5, qs * 4.0):
                c = aq_constant(p, q, d).constant
                assert ceiling <= c * (1.0 + 1e-12)


def test_aq_approaches_ainf_for_large_q():
    # the A_inf constant is the q -> inf limit of the moment constants
    c_inf = ainf_constant(2.0, 2.0).constant
    c_q = aq_constant(2.0, 1e7, 2.0).constant
    assert c_q == pytest.approx(c_inf, rel=1e-5)


@pytest.mark.parametrize("q", [1e3, 1e8, 1e15, 1e30])
def test_aq_keeps_its_digits_at_large_q(q):
    # the closed form at 60 digits from the same float q_star, so that only
    # its evaluation is tested: cancellation there grows with q
    ref = reference.aq_constant(q, q_star(2.0, 2.0))
    assert aq_constant(2.0, q, 2.0).constant == pytest.approx(float(ref), rel=1e-14)


def test_aq_at_huge_q_is_the_ainf_constant():
    c_inf = ainf_constant(2.0, 2.0).constant
    assert aq_constant(2.0, 1e30, 2.0).constant == pytest.approx(c_inf, rel=1e-15)


def sample_upper_curve(p, delta, count):
    """Points on the upper boundary plus a few interior, for sup scans."""
    pts = []
    for i in range(count):
        tau = 10.0 ** (-2.0 + 4.0 * i / (count - 1.0))
        if math.isinf(p):
            pts.append((tau, delta * tau))
        else:
            pts.append((tau, (delta * tau) ** p))
    return pts


def test_aq_constant_is_attained_on_upper_curve():
    # sup over x of x1 * value**(q-1) and the argmax location
    params = Parameters(2.0, 10.0, 2.0)
    target = aq_constant(2.0, 10.0, 2.0).constant
    best = 0.0
    for x in sample_upper_curve(2.0, 2.0, 400):
        best = max(best, x[0] * bellman_limit_check(params, x))
    assert best == pytest.approx(target, rel=1e-6)
    # interior points stay strictly below
    for frac in (0.3, 0.6, 0.9):
        x = (1.0, 1.0 + frac * 3.0)
        assert 1.0 * bellman_limit_check(params, x) < target * (1.0 + 1e-12)


def test_ainf_constant_is_attained_on_upper_curve():
    target = ainf_constant(2.0, 2.0).constant
    best = 0.0
    for x in sample_upper_curve(2.0, 2.0, 400):
        best = max(best, x[0] * bellman_infinity_value(2.0, 2.0, x))
    assert best == pytest.approx(target, rel=1e-6)


def test_gehring_constant_via_lower_branch_values():
    # with q < 1 the matching functional is x1**-1 * value**(1-q) at t = 1-q'
    params = Parameters(2.0, 0.7, 1.05)
    t = 1.0 - params.q_conj
    target = rht_constant(2.0, t, 1.05).constant
    best = 0.0
    for x in sample_upper_curve(2.0, 1.05, 400):
        v = bellman_value(params, x)
        best = max(best, (1.0 / x[0]) * v ** (1.0 - params.q))
    assert best == pytest.approx(target, rel=1e-6)


@pytest.mark.parametrize("p", [1.0 + 1e-7, 2.0, 3e305])
def test_degenerate_class_constants_are_one(p):
    assert aq_constant(p, 3.0, 1.0) == EmbeddingResult(1.0, 1.0)
    assert ainf_constant(p, 1.0) == EmbeddingResult(1.0, 1.0)

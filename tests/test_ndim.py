"""Cube-splitting bounds: thresholds, the ratio root, the enlarged
norm, and the limit behavior of the resulting constants."""

import math

import pytest

from sharpweights import (
    DomainError,
    NDimBound,
    cli,
    delta_threshold,
    epsilon_bound,
    ndim_aq_bound,
    ratio_bound_y,
)

import reference

# pinned by 50-digit evaluation of the p = 2 closed chain
Y_105 = 2.8308668336619440935
EPS_105 = 1.6716606498194945848


def test_threshold_examples():
    assert delta_threshold(2.0, 2) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-14)
    assert delta_threshold(2.0, 10) == pytest.approx(math.sqrt(1024.0 / 1023.0), rel=1e-14)
    assert delta_threshold(100.0, 2) == pytest.approx(4.0 / 3.0, rel=1e-2)


def test_threshold_validation():
    with pytest.raises(DomainError):
        delta_threshold(math.inf, 2)
    with pytest.raises(DomainError):
        delta_threshold(2.0, 1)
    with pytest.raises(DomainError):
        delta_threshold(2.0, 2.0)
    with pytest.raises(DomainError):
        delta_threshold(2.0, True)
    with pytest.raises(DomainError):
        delta_threshold(1.0, 2)


def test_ratio_bound_degenerate():
    assert ratio_bound_y(2.0, 2, 1.0) == 1.0


def test_ratio_bound_quadratic_oracle():
    assert ratio_bound_y(2.0, 2, 1.05) == pytest.approx(Y_105, rel=1e-9)


def test_ratio_bound_solves_symmetric_equation():
    # y solves (1+y)**p/(1+y**p) = L**(p-1), whose left side is the same
    # at y and 1/y
    def lhs(v, p):
        return (1.0 + v) ** p / (1.0 + v**p)

    for p in (1.5, 2.0, 4.0):
        for frac in (0.2, 0.5, 0.9):
            delta = 1.0 + frac * (delta_threshold(p, 2) - 1.0)
            y = ratio_bound_y(p, 2, delta)
            big_l = 2.0 + 4.0 * (delta ** (-p / (p - 1.0)) - 1.0)
            assert y > 1.0
            assert lhs(y, p) == pytest.approx(big_l ** (p - 1.0), rel=1e-12)
            assert lhs(1.0 / y, p) == pytest.approx(lhs(y, p), rel=1e-14)


def test_ratio_bound_blows_up_at_threshold():
    threshold = delta_threshold(2.0, 2)
    assert ratio_bound_y(2.0, 2, threshold - 1e-9) > 1e6
    with pytest.raises(DomainError, match="no finite ratio bound"):
        ratio_bound_y(2.0, 2, threshold)
    with pytest.raises(DomainError):
        ratio_bound_y(2.0, 2, 0.9)


def test_epsilon_examples():
    assert epsilon_bound(2.0, 2, 1.0) == 1.0
    assert epsilon_bound(2.0, 2, 1.05) == pytest.approx(EPS_105, rel=1e-9)


def test_epsilon_dominates_delta():
    for p in (1.5, 2.0, 4.0):
        for frac in (0.2, 0.5, 0.9):
            delta = 1.0 + frac * (delta_threshold(p, 2) - 1.0)
            assert epsilon_bound(p, 2, delta) >= delta


def test_witness_vector_achieves_the_bound():
    p, n, delta = 2.0, 2, 1.05
    y = ratio_bound_y(p, n, delta)
    a = ((1.0 + y**p) / (1.0 + y)) ** (1.0 / (p - 1.0))
    v = [1.0] + [a] * (2**n - 2) + [y]
    lhs = sum(t**p for t in v) / sum(v) ** p
    rhs = delta**p / 2 ** (n * (p - 1.0))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_aq_bound_chain():
    bound = ndim_aq_bound(2.0, 5.0, 2, 1.0)
    assert isinstance(bound, NDimBound)
    assert bound.constant == 1.0
    assert bound.y == 1.0 and bound.epsilon == 1.0

    bound = ndim_aq_bound(2.0, 3.0, 2, 1.05)
    assert bound.y == pytest.approx(Y_105, rel=1e-9)
    assert bound.epsilon == pytest.approx(EPS_105, rel=1e-9)
    # q*(2, 1.6717) > 3, so the moment bound is the infinite branch
    assert bound.constant == math.inf

    assert ndim_aq_bound(2.0, 3.0, 2, 1.01).constant == pytest.approx(
        1.3857727785133213342, rel=1e-9
    )


def test_aq_bound_limit_toward_one():
    values = [ndim_aq_bound(2.0, 3.0, 2, 1.0 + 10.0**-k).constant for k in range(1, 9)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier
    assert values[-1] == pytest.approx(1.0000001350955170521, rel=1e-9)
    assert values[-1] < 1.001


def test_aq_bound_validation():
    with pytest.raises(DomainError):
        ndim_aq_bound(2.0, 1.0, 2, 1.05)
    with pytest.raises(DomainError):
        ndim_aq_bound(2.0, 0.5, 2, 1.05)


def test_degenerate_class_bounds_are_one():
    assert ratio_bound_y(2.0, 2, 1.0) == 1.0
    assert epsilon_bound(2.0, 2, 1.0) == 1.0
    assert ndim_aq_bound(2.0, 3.0, 2, 1.0) == NDimBound(n=2, y=1.0, epsilon=1.0, constant=1.0)


@pytest.mark.parametrize("n", [52, 60, 1024, 5000])
@pytest.mark.parametrize("p", [1.5, 2.0, 50.0])
def test_large_dimensions_admit_only_the_degenerate_class(p, n, capsys):
    # the threshold rounds to 1 or the float above it from n = 52 on, and
    # 2.0**n overflows from n = 1024 on; delta = 1 still gives the bounds
    # of the degenerate class, and the float above 1 is past the threshold
    above_one = math.nextafter(1.0, 2.0)
    assert delta_threshold(p, n) <= above_one
    assert ndim_aq_bound(p, 10.0, n, 1.0) == NDimBound(n=n, y=1.0, epsilon=1.0, constant=1.0)
    with pytest.raises(DomainError, match="no finite ratio bound"):
        ndim_aq_bound(p, 10.0, n, above_one)
    argv = ["ndim", "--p", str(p), "--q", "10", "--n", str(n), "--delta", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith(" y=1 epsilon=1 c_q=1\n")


@pytest.mark.parametrize(
    "p, n, delta",
    [(1.001226987371404, 5, 1.000038837968962), (62.04422484796464, 2, 1.3264867130343334)],
)
def test_epsilon_matches_50_digits_at_large_y(p, n, delta):
    # y is about 5370 and 652 here, so f is within 1/y**2 of 1 and f - 1
    # keeps its digits only if it is not formed by subtracting 1 from f
    ref = reference.ndim_epsilon(p, delta, ratio_bound_y(p, n, delta))
    assert reference.rel_err(epsilon_bound(p, n, delta), ref) <= 1e-15

"""The supremum oracle, sup_ratio_search, and its scorer max_pair_ratio: the one
corner pair (0, a) scored in closed form, against a reference scorer on the same
averages, a float brute force over every grid pair and the 50-digit Phi(0); the
corner lemma that lets that pair stand for every pair, checked at 50 digits; and
the scorer's interface and the search's memory."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from sharpweights import (FunctionalKind, PowerWeight, cli, extremal_weight, functional_ratio, q_star,
                          sup_ratio_search, t_star)
from sharpweights import weights
from sharpweights.weights import max_pair_ratio

import reference


def reference_score(grid, avg, box_cox, center, lam, cap, mode, ramp):
    """The value of the pair (0, 1) of ``grid`` from its averages, in plain math, as the
    oracle's scorer documents it, with no fallback where exp(-G) alone overflows."""
    if mode == 2:
        return cap / avg, 0, 1
    if lam == 0.0:
        return avg * math.exp(-box_cox), 0, 1
    g = (math.log1p(box_cox) if center else math.log(box_cox)) / abs(lam)
    return (math.exp(g) / avg if lam > 0.0 else avg * math.exp(g)), 0, 1


def search_args(w, kind, depth):
    """The arguments sup_ratio_search gives the scorer for w and kind, or None
    where it returns with no score."""
    scans = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights, "max_pair_ratio", lambda *args: scans.append(args) or (1.0, 0, 1))
        sup_ratio_search(w, kind, depth)
    return scans[0] if scans else None


def random_kind(rng, mode):
    """a_inf in mode 1, rh_inf in mode 2, and in mode 0 aq(q) with q - 1 in
    [0.1, 1e14] or rh_p(t) with t - 1 in [0.1, 30], log-uniform."""
    if mode == 1:
        return FunctionalKind.a_inf()
    if mode == 2:
        return FunctionalKind.rh_inf()
    if rng.random() < 0.5:
        return FunctionalKind.aq(float(1.0 + 10.0 ** rng.uniform(-1.0, 14.0)))
    return FunctionalKind.rh_p(float(1.0 + 10.0 ** rng.uniform(-1.0, 1.5)))


def random_search(rng, depth, mode):
    """(weight, kind, the scorer's arguments) for a random weight c (t/a)**nu and
    kind of the mode: c in [1e-3, 1e3], a in (0, 1] and mostly off the grid, |nu|
    in [0.01, 63], of either sign but in mode 2, where the kind needs nu >= 0."""
    while True:
        nu = float(10.0 ** rng.uniform(-2.0, 1.8)) * (1.0 if mode == 2 or rng.random() < 0.5 else -1.0)
        a = float(1.0 - rng.random()) if rng.random() < 0.8 else 1.0
        w = PowerWeight(float(10.0 ** rng.uniform(-3.0, 3.0)), a, nu)
        kind = random_kind(rng, mode)
        args = search_args(w, kind, depth)
        if args is not None:  # none where the moment diverges at 0
            return w, kind, args


def assert_bit_identical(*args):
    assert max_pair_ratio(*args) == reference_score(*args)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_pruned_scan_is_bit_identical_on_random_prefixes(mode):
    # the averages over [0, g] of random power weights, as the search forms them
    # (prefix integrals until the averages were formed in closed form)
    rng = np.random.default_rng(31 + mode)
    for depth in (6, 6, 6, 8, 8):
        assert_bit_identical(*random_search(rng, depth, mode)[2])


def random_power_weights():
    """1,000 random_searches, a third of them in each mode: random c, a mostly
    off the grid, nu of both signs, every kind, q up to 1e14, depths 6 to 9."""
    rng = np.random.default_rng(26)
    for k in range(1000):
        yield random_search(rng, int(rng.choice([6, 6, 7, 7, 8, 9])), k % 3)


def test_random_power_weights_are_bit_identical():
    # to the reference scorer, on every search
    for w, kind, args in random_power_weights():
        assert max_pair_ratio(*args) == reference_score(*args), (w, kind)


def grid_pairs_max(w, kind, depth):
    """The largest functional_ratio over every pair of the dyadic grid of the depth
    with w.a, from the scalar closed forms."""
    g = np.unique(np.r_[np.arange(2**depth + 1) / 2**depth, w.a]).tolist()
    return max(functional_ratio(w, kind, g[i], g[j]) for j in range(1, len(g)) for i in range(j))


# weights with a plateau: a on the grid (0.5), off it (0.1, 0.7071), and at the first step of depth 12
PLATEAUS = [PowerWeight(1.0, 0.5, 3.0), PowerWeight(2.0, 0.1, -0.5), PowerWeight(1e-3, 0.7071, 0.5),
            PowerWeight(5.0, 2.0**-12, 7.0)]
ALL_KINDS = [FunctionalKind.aq(10.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(3.0), FunctionalKind.rh_inf()]
PLATEAU_IDS = {f"plateau a={w.a:.4g}": w for w in PLATEAUS}


@pytest.mark.parametrize("weight", ["positive", "negative", *PLATEAU_IDS])
@pytest.mark.parametrize("all_pairs", [True, False])
def test_pruned_scan_is_bit_identical_on_extremal_weights(monkeypatch, weight, all_pairs):
    # to the reference scorer on the oracle's own averages, at depth 9; and at depth 5
    # within 8 rounding units (6 at most) of the largest functional_ratio over every
    # pair of the grid, the float brute force over all pairs from the scalar closed forms
    scans = []

    def checked(*args):
        expected = reference_score(*args)
        assert max_pair_ratio(*args) == expected
        scans.append(args)
        return expected

    monkeypatch.setattr(weights, "max_pair_ratio", checked)
    if weight.startswith("plateau"):
        w, kinds = PLATEAU_IDS[weight], ALL_KINDS
    else:
        # an interior point, so the weight has both a ramp and a plateau;
        # q = 5 lies above q_star and t = 2 below t_star at p = 2.5, delta = 1.6
        w = extremal_weight(2.5, 1.6, (1.0, 1.5), "plus" if weight == "positive" else "minus")
        assert (w.nu > 0.0) == (weight == "positive") and w.a < 1.0
        kinds = [FunctionalKind.aq(5.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(2.0), FunctionalKind.rh_inf()]
    # rh_inf needs nu >= 0, and rh_p(3) diverges at 0 where 3 nu <= -1, with no score
    depth = 5 if all_pairs else 9
    finite = 0
    for kind in kinds:
        if w.nu < 0.0 and kind.name == "rhinf":
            continue
        sup = sup_ratio_search(w, kind, depth)[0]
        if sup < math.inf:
            finite += 1
            if all_pairs:
                brute = grid_pairs_max(w, kind, depth)
                assert abs(sup - brute) <= 8.0 * math.ulp(brute), (kind, sup, brute)
    assert len(scans) == finite >= 2


def test_exponential_scan_with_a_negative_log_prefix():
    # the average of log v, v = w/w(g), over [0, g] is -nu: below zero for nu > 0
    # and above it for nu < 0, with a breakpoint at 1 or off the grid
    args = search_args(extremal_weight(2.0, 2.0, (1.0, 4.0), "plus"), FunctionalKind.a_inf(), 9)
    assert args[2] < 0.0 and args[0] == (0.0, 2.0**-9) and args[7] == 1
    assert_bit_identical(*args)
    for nu in (-0.5, 0.5):
        args = search_args(PowerWeight(1.0, 0.3, nu), FunctionalKind.a_inf(), 9)
        assert args[2] == -nu
        assert_bit_identical(*args)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_constant_weight_ties_resolve_to_the_first_pair(mode):
    # every pair ties at exactly 1: the averages of w = 1, with the Box-Cox
    # average 0, at lam = 0 (a_inf) and at lam = 2 (rh_p(2)), on the pair (0, 1/300)
    args = ((0.0, 1.0 / 300.0), 1.0, 0.0, 1.0, 0.0 if mode == 1 else 2.0, 1.0, mode, 1)
    assert max_pair_ratio(*args) == reference_score(*args) == (1.0, 0, 1)


def test_constant_weight_search_reports_the_first_interval():
    # a constant weight scores exactly 1 on every interval, whatever the
    # breakpoint, also where it lies below the first grid step
    kinds = [FunctionalKind.aq(4.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(3.0), FunctionalKind.rh_inf()]
    for a in (1.0, 0.3, 0.7071, 2.0**-9):
        for kind in kinds:
            got = sup_ratio_search(PowerWeight(3.0, a, 0.0), kind, 8)
            assert got == (1.0, (0.0, min(a, 1.0 / 256.0)))


def test_corner_lemma_phi_is_nonincreasing_at_50_digits():
    # the lemma behind the corner bound, checked on a corpus of nu, q (or p) and r
    rs = reference.decimals([f"1e-{k}" for k in (15, 12, 9, 6, 4, 3, 2)] + [f"0.{x}" for x in range(1, 10)]
                            + ["0." + "9" * k for k in (2, 4, 6, 8, 11)])
    nus = reference.decimals(["-0.99", "-0.5", "-1e-6", "1e-6", "0.3", "1", "4", "25", "100"])
    exponents = reference.decimals(["1.01", "1.5", "2", "10", "1e6"])
    cases = [(FunctionalKind.aq(q), nu) for nu in nus for q in exponents]
    cases += [(FunctionalKind.rh_p(t), nu) for nu in nus for t in exponents if t * nu > -1]
    cases += [(FunctionalKind.a_inf(), nu) for nu in nus] + [(FunctionalKind.rh_inf(), nu) for nu in nus if nu > 0]
    for kind, nu in cases:
        phi = [reference.phi(kind, nu, r) for r in rs]
        assert all(x >= y for x, y in zip(phi, phi[1:])), (kind, nu)
        assert phi[0] > phi[-1], (kind, nu)


def lemma_corpus():
    """(weight, kind, depth): a on the grid, off it from 1e-3 to 1, and 1; nu of
    both signs, from -0.99 to 100; every kind, q up to 1e6; depths 3 to 6.  Kinds
    whose moment diverges at 0, where Phi(0) is inf, are left out."""
    rng = np.random.default_rng(18)
    cases = []
    for k in range(30):
        depth = int(rng.choice([3, 4, 5, 6]))
        a = [float(rng.integers(1, 2**depth)) / 2**depth, float(10.0 ** rng.uniform(-3.0, 0.0)), 1.0][k % 3]
        nu = float(10.0 ** rng.uniform(-3.0, 2.0)) if k % 2 else -float(10.0 ** rng.uniform(-3.0, -0.005))
        q, t = float(10.0 ** rng.uniform(0.01, 6.0)), float(1.0 + 10.0 ** rng.uniform(-1.0, 1.5))
        kinds = [FunctionalKind.aq(q), FunctionalKind.a_inf(), FunctionalKind.rh_p(t)]
        for kind in kinds + [FunctionalKind.rh_inf()] * (nu > 0.0):
            lam = weights._box_cox_exponent(kind)
            if nu > -1.0 and lam * nu > -1.0:
                cases.append((PowerWeight(1.0, a, nu), kind, depth))
    return cases


def test_plateau_lemma_holds_on_every_grid_pair_at_50_digits():
    # the corner lemma on the grid the search builds, the dyadic points with a: no
    # pair passes Phi(0), which the pair (0, a) attains, and F never rises with alpha
    cases = lemma_corpus()
    assert {kind.name for _, kind, _ in cases} == {"aq", "ainf", "rhp", "rhinf"}
    assert any(w.nu < 0.0 for w, _, _ in cases) and max(w.nu for w, _, _ in cases) > 10.0
    for w, kind, depth in cases:
        grid = np.unique(np.r_[np.arange(2**depth + 1) / 2**depth, w.a])
        ramp = int(grid.searchsorted(w.a))
        a, nu = mp.mpf(w.a), mp.mpf(w.nu)
        integral_to = lambda theta, t: reference.integral(w, theta, 0, t)
        top = lambda t: (min(t, a) / a) ** nu
        values = reference.grid_functionals(kind, [mp.mpf(float(g)) for g in grid], integral_to, top)
        phi = reference.phi(kind, w.nu)
        assert reference.lemma_violations(values, phi) == ([], []), (w, kind, depth)
        assert reference.rel_err(values[0, ramp], phi) <= 1e-30, (w, kind, depth)


def test_lemma_check_finds_the_two_step_counterexample():
    # the lemma needs the ramp-plateau form: on w = 1 on [0, 1/2] and 4 past it, a
    # monotone weight, A_inf is 1.25 on [0.4, 0.6] and 1.19 on [0, 0.6], so it rises
    # with alpha there, and it passes its value on [0, 1/2], 1, where w steps
    def integral(theta, t):
        past = max(t - half, 0)
        return past * mp.log(4) if theta is None else min(t, half) + 4**theta * past

    half, grid = mp.mpf(0.5), reference.decimals([str(k / 10) for k in range(11)])
    values = reference.grid_functionals(FunctionalKind.a_inf(), grid, integral)
    above, rises = reference.lemma_violations(values, values[0, 5])
    assert values[0, 5] == 1 and float(values[4, 6]) == 1.25 and round(float(values[0, 6]), 2) == 1.19
    assert (4, 6) in above and {(0, 6), (1, 6), (2, 6)} <= set(rises)


def test_verify_near_delta_one_is_within_4_ulp_of_phi_zero(capsys):
    # the pure power's row [0] ties at Phi(0) in exact arithmetic, and the oracle
    # scores the corner pair in closed form: 0.45 ulp here
    assert cli.main(["verify", "--p", "2", "--q", "10", "--delta", "1.000000000001", "--depth", "17"]) == 0
    rec = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
    delta = float(rec["delta"])
    w = extremal_weight(2.0, delta, (1.0, delta**2), "plus")
    assert w.a == 1.0 and rec["argmax_alpha"] == "0"
    phi = reference.phi(FunctionalKind.aq(10.0), w.nu)
    assert reference.abs_err(float(rec["sup"]), phi) <= 4 * math.ulp(float(phi)), (rec["sup"], phi)


def phi_zero_searches():
    """(label, weight, kind) of the upper-curve extremal weights at p = delta = 2
    and at p = 6, delta = 1.001: aq at q from 10 to 1e14 and a_inf on the plus
    weight, rh_p on the minus one."""
    cases = []
    for p, delta, t in ((2.0, 2.0, 2.0), (6.0, 1.001, 3.0)):
        plus, minus = (extremal_weight(p, delta, (1.0, delta**p), branch) for branch in ("plus", "minus"))
        cases += [(f"p={p} aq({q})", plus, FunctionalKind.aq(q)) for q in (10.0, 1e6, 1e10, 1e14)]
        cases += [(f"p={p} a_inf", plus, FunctionalKind.a_inf()), (f"p={p} rh_p({t})", minus, FunctionalKind.rh_p(t))]
    return cases


@pytest.mark.parametrize("depth", [10, 12])
def test_scan_supremum_is_the_50_digit_phi_zero(depth):
    # on a pure power the exact grid supremum is Phi(0) (the corner lemma); the
    # Box-Cox leaf adds no rounding that grows with q - 1: 1.8e-14 at most, where
    # the power form erred by 3.4e-10 at q = 1e6, 3.8e-6 at 1e10 and 6.4e17 at 1e14
    # (functional_ratio on [0, 1] by up to 9.7e-7 at 1e10 and 2.6e-3 at 1e14)
    for label, w, kind in phi_zero_searches():
        sup = sup_ratio_search(w, kind, depth)[0]
        phi = reference.phi(kind, w.nu)
        assert reference.rel_err(sup, phi) <= 3e-14, (label, sup, phi)
        # and so is the closed form on [0, 1]
        closed = functional_ratio(w, kind, 0.0, 1.0)
        assert reference.rel_err(closed, phi) <= 3e-14, (label, closed, phi)


def accuracy_corpus():
    """(weight, kind): 50 draws of the benchmark's region, p in [1.5, 6] and delta - 1
    log-uniform in [1e-3, 1], each giving the upper-curve extremal weights with aq(q)
    (q above q_star) and a_inf on the plus one, rh_p(t) (t below t_star) on the minus
    one and rh_inf on the p = inf one; and 50 plateau weights, a log-uniform in [1e-3,
    1), nu in [-1, -1e-3), with aq(q), q - 1 log-uniform in [0.1, 1e6], a_inf and
    rh_p(t), t nu > -1."""
    rng = np.random.default_rng(38)
    kinds = FunctionalKind
    cases = []
    for _ in range(50):
        p, delta = float(rng.uniform(1.5, 6.0)), 1.0 + float(10.0 ** rng.uniform(-3.0, 0.0))
        plus, minus = (extremal_weight(p, delta, (1.0, delta**p), branch) for branch in ("plus", "minus"))
        top = extremal_weight(math.inf, delta, (1.0, delta), "plus")
        q = q_star(p, delta) * float(1.0 + 10.0 ** rng.uniform(-2.0, 1.0))
        t = 1.0 + (t_star(p, delta) - 1.0) * float(rng.uniform(0.05, 0.95))
        cases += [(plus, kinds.aq(q)), (plus, kinds.a_inf()), (minus, kinds.rh_p(t)), (top, kinds.rh_inf())]
    for _ in range(50):
        w = PowerWeight(1.0, float(10.0 ** rng.uniform(-3.0, -0.01)), -float(10.0 ** rng.uniform(-3.0, -0.005)))
        t = 1.0 + (-1.0 / w.nu - 1.0) * float(rng.uniform(0.05, 0.95))
        cases += [(w, kinds.aq(1.0 + float(10.0 ** rng.uniform(-1.0, 6.0)))), (w, kinds.a_inf())]
        cases += [(w, kinds.rh_p(t))] * (t > 1.0)
    return cases


def test_oracle_is_within_a_few_ulp_of_the_50_digit_phi_zero():
    # the depth-12 search against Phi(0) in ulp of Phi(0): median 0.31, upper curve
    # at most 40.7, plateaus at most 2.3, from the corner pair's closed-form averages;
    # each bound is about 1.2 to 1.3 times that
    cases = accuracy_corpus()
    assert len(cases) == 350
    ulps = {True: [], False: []}
    for w, kind in cases:
        sup = sup_ratio_search(w, kind, 12)[0]
        phi = reference.phi(kind, w.nu)
        ulps[w.a < 1.0].append(reference.abs_err(sup, phi) / math.ulp(float(phi)))
    assert np.median(ulps[True] + ulps[False]) <= 0.4
    assert max(ulps[False]) <= 48.0 and max(ulps[True]) <= 3.0, (max(ulps[False]), max(ulps[True]))


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_scan_emits_no_float_warnings(mode):
    # nor raises: math raises where NumPy warned, so the scorer must keep exp and
    # log in range on every search.  At p = 1.01, delta = 2, nu is q_star - 1 =
    # 6.9e30 and the plain average 1.4e-31; aq(1e14) and aq(1e17) take lam = -1e-14
    # and -1e-17 into log1p; a_inf at nu = 712 overflows exp(nu) where exp(nu)/(1 +
    # nu) is finite, and at nu = 800 the value itself; nu = 1e300 keeps 1/(1 + nu)
    # normal; breakpoints at g[1], g[2] and g[64] and just below 1
    searches = [extremal_weight(1.01, 2.0, (1.0, 2.0**1.01), "plus"),
                extremal_weight(2.0, 2.0, (1.0, 4.0), "plus"), extremal_weight(2.0, 1.001, (1.0, 1.001**2), "minus"),
                PowerWeight(1.0, 1.0 - 2.0**-10, 3.0), PowerWeight(1.0, 0.5, 712.0), PowerWeight(1.0, 0.5, 800.0),
                PowerWeight(1.0, 0.5, 1e300), PowerWeight(1.0, 0.5, -0.999999999999)]
    searches += [PowerWeight(1.0, k / 512.0, 3.0) for k in (1, 2, 64)]
    kinds = {0: [FunctionalKind.aq(10.0), FunctionalKind.aq(1e14), FunctionalKind.aq(1e17), FunctionalKind.rh_p(2.0)],
             1: [FunctionalKind.a_inf()], 2: [FunctionalKind.rh_inf()]}[mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for w in searches:
            for kind in kinds:
                if w.nu < 0.0 and kind.name == "rhinf":
                    continue
                sup = sup_ratio_search(w, kind, 9)[0]
                assert sup == math.inf or 1.0 <= sup < math.inf, (w, kind, sup)


def test_a_inf_past_the_range_of_exp_is_phi_zero():
    # exp(nu) overflows from nu = 709.8, while Phi(0) = exp(nu)/(1 + nu) stays finite
    # to nu = 716.3: the scorer takes exp(nu/2) twice there, where the maximum over
    # row [0] read inf
    for nu in (709.0, 712.0, 716.0):
        w = PowerWeight(1.0, 0.5, nu)
        sup = sup_ratio_search(w, FunctionalKind.a_inf(), 12)[0]
        phi = reference.phi(FunctionalKind.a_inf(), nu)
        assert reference.abs_err(sup, phi) <= 4 * math.ulp(float(phi)), (nu, sup, phi)
    assert sup_ratio_search(PowerWeight(1.0, 0.5, 717.0), FunctionalKind.a_inf(), 12)[0] == math.inf


def test_searches_give_the_scan_its_one_input(monkeypatch):
    # the scorer checks none of this itself: the pair (0, g), g = min(a, 2**-depth),
    # and the float averages over [0, g] of v = w/w(g) = (t/g)**nu: the plain one
    # 1/(1 + nu) in every mode, the cap 1 in mode 2, else the Box-Cox average
    scans = []
    monkeypatch.setattr(weights, "max_pair_ratio", lambda *args: scans.append(args) or (1.0, 0, 1))
    kinds = set()
    for depth, delta in ((12, 1.0), (12, 1.001), (12, 2.0), (14, 1.0), (14, 1.001), (14, 2.0)):
        extremal = [extremal_weight(2.0, delta, (1.0, delta**2), branch) for branch in ("plus", "minus")]
        for w in extremal + PLATEAUS:
            for kind in ALL_KINDS:
                if w.nu < 0.0 and kind.name == "rhinf":
                    continue
                scans.clear()
                witness = sup_ratio_search(w, kind, depth)[1]
                for grid, avg, box_cox, center, lam, cap, mode, ramp in scans:
                    assert grid == witness == (0.0, min(w.a, 2.0**-depth)) and ramp == 1
                    assert all(isinstance(x, float) for x in (avg, box_cox, center, lam, cap))
                    assert avg == 1.0 / (1.0 + w.nu) and cap == 1.0
                    assert mode == {"aq": 0, "rhp": 0, "ainf": 1, "rhinf": 2}[kind.name]
                    assert lam == weights._box_cox_exponent(kind)
                    k = lam * w.nu
                    if mode == 1:
                        assert box_cox == -w.nu
                    elif mode == 0:
                        # center says whether box_cox is the average of v**lam - 1,
                        # -k/(1 + k) (always where k <= 0), or of v**lam, 1/(1 + k)
                        assert center == (k <= 1.0)
                        assert box_cox == (-k / (1.0 + k) if center else 1.0 / (1.0 + k))
                        assert (-0.5 <= box_cox if center else 0.0 < box_cox < 0.5)
                    kinds.add(kind.name)
    assert kinds == {"aq", "ainf", "rhp", "rhinf"}


def test_scan_interface_that_the_benchmark_tracer_reads(monkeypatch):
    # perfbench/tracing.py wraps weights.max_pair_ratio and reads its positional
    # arguments: the grid first, for the pair count, and the mode seventh, which
    # it labels 0 "moment" (aq and rh_p), 1 "exponential" (a_inf) and 2 "sup" (rh_inf).
    # The grid is the one pair scored, (0, min(a, 2**-depth)): 2 points, 1 pair
    calls = []
    monkeypatch.setattr(weights, "max_pair_ratio", lambda *args, **kwargs: calls.append((args, kwargs)) or (1.0, 0, 1))
    plus, minus = (extremal_weight(2.0, 1.5, (1.0, 2.25), branch) for branch in ("plus", "minus"))
    searches = {0: [(plus, FunctionalKind.aq(10.0)), (minus, FunctionalKind.rh_p(2.0))],
                1: [(plus, FunctionalKind.a_inf())], 2: [(plus, FunctionalKind.rh_inf())]}
    for mode, pairs in searches.items():
        for w, kind in pairs:
            calls.clear()
            sup_ratio_search(w, kind, 6)
            (args, kwargs), = calls
            assert len(args) == 8 and kwargs == {}
            assert args[0] == (0.0, 1.0 / 64.0) and len(args[0]) == 2
            assert args[6] == mode


def search_peak(w, kind, depth):
    """The tracemalloc peak of one search."""
    sup_ratio_search(w, kind, depth)  # any first-call set-up, untraced
    tracemalloc.start()
    try:
        sup_ratio_search(w, kind, depth)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def extremal_peak(delta, depth):
    """The tracemalloc peak of one aq(10) search of the p = 2 plus extremal weight."""
    return search_peak(extremal_weight(2.0, delta, (1.0, delta**2), "plus"), FunctionalKind.aq(10.0), depth)


@pytest.mark.parametrize("delta", [1.001, 2.0])
def test_search_peak_allocation(delta):
    # a search holds a few floats and tuples at once: 48 bytes at either delta.  The
    # ceiling, 1 KiB, leaves room for other interpreters' object sizes
    peak = extremal_peak(delta, 14)
    assert peak < 1024, peak


def test_search_peak_allocation_grows_linearly():
    # 4x the points from depth 14 to 16: the same 48 bytes, as no array is built
    ratio = extremal_peak(2.0, 16) / extremal_peak(2.0, 14)
    assert ratio <= 1.5, ratio


def test_plateau_search_peak_allocation():
    # a = 0.1 at depth 14: 48 bytes, as on the upper curve
    peak = search_peak(PowerWeight(1.0, 0.1, 3.0), FunctionalKind.a_inf(), 14)
    assert peak < 1024, peak

"""The row-[0] supremum oracle against references on its own averages and the
50-digit Phi(0), and the corner lemma, checked at 50 digits, that lets row [0]
stand for every pair."""

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


def box_cox_value(avg, b, center, lam):
    """A_q, A_inf or RH_t from the plain average and the average b of w**lam -
    center (of log w at lam = 0): A exp(-G), or exp(G)/A where lam > 0, with G =
    log(center + b)/lam, and b at lam = 0."""
    if lam == 0.0:
        return avg * np.exp(-b)
    g = (np.log1p(b) if center else np.log(b)) * (1.0 / abs(lam))
    return np.exp(g) / avg if lam > 0.0 else avg * np.exp(g)


def row_0_scan(grid, avg, box_cox, center, lam, cap, mode, ramp):
    """The pairs (0, j), 1 <= j <= ramp, scored out of place from the averages,
    NaN scored -inf, ties to the smallest j: the oracle's own pairs, bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = cap / avg if mode == 2 else box_cox_value(avg, box_cox, center, lam)
    vals = np.where(np.isnan(vals), -np.inf, vals)
    j = int(np.argmax(vals))
    return float(vals[j]), 0, j + 1


def reference_values(grid, avg, box_cox, center, lam, cap, mode, ramp):
    """The value of each pair (0, j), 1 <= j <= ramp, in a plain loop in math, -inf
    where it is NaN or has no value."""
    vals = []
    for a1, b, top in zip(avg.tolist(), box_cox.tolist(), cap.tolist()):
        try:
            if mode == 2:
                v = top / a1
            elif lam == 0.0:
                v = a1 * math.exp(-b)
            else:
                g = (math.log1p(b) if center else math.log(b)) / abs(lam)
                v = math.exp(g) / a1 if lam > 0.0 else a1 * math.exp(g)
        except (ValueError, ZeroDivisionError):
            v = -math.inf
        except OverflowError:  # of exp, on positive averages
            v = math.inf
        vals.append(-math.inf if math.isnan(v) else v)
    return vals


def reference_scan(*args):
    """reference_values' largest, with the same strict-improvement tie rule."""
    vals = reference_values(*args)
    j = vals.index(max(vals))
    return vals[j], 0, j + 1


# the row-[0] oracle, and the same pairs scored out of place
SCANS = [("numpy", max_pair_ratio), ("row", row_0_scan)]


def search_args(w, kind, depth, grid=None):
    """The arguments sup_ratio_search gives the scan for w and kind, or None
    where it returns with no scan; on ``grid``, with w.a inserted as the search
    inserts it, in place of the dyadic grid of the depth if one is given."""
    scans = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights, "max_pair_ratio", lambda *args: scans.append(args) or (1.0, 0, 1))
        if grid is not None:
            patch.setattr(weights, "_dyadic_parts", lambda depth, a: weights._grid_parts(grid, a))
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
    """(weight, kind, the scan's arguments) for a random weight c (t/a)**nu and kind
    of the mode: c in [1e-3, 1e3], a in (0, 1] and mostly off the grid, |nu| in
    [0.01, 63], of either sign but in mode 2, where the kind needs nu >= 0."""
    while True:
        nu = float(10.0 ** rng.uniform(-2.0, 1.8)) * (1.0 if mode == 2 or rng.random() < 0.5 else -1.0)
        a = float(1.0 - rng.random()) if rng.random() < 0.8 else 1.0
        w = PowerWeight(float(10.0 ** rng.uniform(-3.0, 3.0)), a, nu)
        kind = random_kind(rng, mode)
        args = search_args(w, kind, depth)
        if args is not None:  # none where the moment diverges at 0
            return w, kind, args


def assert_bit_identical(*args):
    assert max_pair_ratio(*args) == row_0_scan(*args)


@pytest.mark.parametrize("name,fn", SCANS)
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_backend_matches_reference(name, fn, mode):
    rng = np.random.default_rng(20240814 + mode)
    for trial in range(5):
        args = random_search(rng, 5, mode)[2]
        best = reference_scan(*args)[0]
        got = fn(*args)
        # every exact value on row [0] is Phi(0), so which pair rounds highest
        # depends on the exp and log: the pair must score the maximum in both
        assert got[0] == pytest.approx(best, rel=1e-13) and got[1] == 0
        assert reference_values(*args)[got[2] - 1] == pytest.approx(best, rel=1e-13)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_pruned_scan_is_bit_identical_on_random_prefixes(mode):
    # the averages of random power weights, as the search builds them (prefix
    # integrals until the averages were formed in closed form)
    rng = np.random.default_rng(31 + mode)
    for depth in (6, 6, 6, 8, 8):
        assert_bit_identical(*random_search(rng, depth, mode)[2])


def random_power_weights():
    """1,000 random_searches, a third of them in each mode: random c, a mostly
    off the grid, nu of both signs, every kind, q up to 1e14, depths 6 to 9."""
    rng = np.random.default_rng(26)
    for k in range(1000):
        yield random_search(rng, int(rng.choice([6, 6, 7, 7, 8, 9])), k % 3)


def phi_zero(w, kind):
    """The 50-digit Phi(0) of w and kind, the functional of t**nu on [0, 1]."""
    with mp.workdps(50):
        return corner_phi(kind.name, mp.mpf(w.nu), mp.mpf(0), kind.exponent and mp.mpf(kind.exponent))


def test_random_power_weights_are_bit_identical():
    # to the oracle's own pairs scored out of place, on every search
    for w, kind, args in random_power_weights():
        assert max_pair_ratio(*args) == row_0_scan(*args), (w, kind)


def grid_pairs_max(w, kind, grid):
    """The largest functional_ratio over every pair of ``grid``, from the scalar closed forms."""
    g = grid.tolist()
    return max(functional_ratio(w, kind, g[i], g[j]) for j in range(1, len(g)) for i in range(j))


# weights with a plateau: a on the grid (0.5), off it (0.1, 0.7071), and at the first step of depth 12
PLATEAUS = [PowerWeight(1.0, 0.5, 3.0), PowerWeight(2.0, 0.1, -0.5), PowerWeight(1e-3, 0.7071, 0.5),
            PowerWeight(5.0, 2.0**-12, 7.0)]
ALL_KINDS = [FunctionalKind.aq(10.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(3.0), FunctionalKind.rh_inf()]
PLATEAU_IDS = {f"plateau a={w.a:.4g}": w for w in PLATEAUS}


@pytest.mark.parametrize("weight", ["positive", "negative", *PLATEAU_IDS])
@pytest.mark.parametrize("all_pairs", [True, False])
def test_pruned_scan_is_bit_identical_on_extremal_weights(monkeypatch, weight, all_pairs):
    # to the oracle's own pairs, row [0] up to a, at depth 9; and at depth 5 within 8
    # rounding units (6 at most) of the largest functional_ratio over every pair of
    # the grid, the float brute force over all pairs from the scalar closed forms
    scans = []

    def checked(*args):
        expected = row_0_scan(*args)
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
    # rh_inf needs nu >= 0, and rh_p(3) diverges at 0 where 3 nu <= -1, with no scan
    depth = 5 if all_pairs else 9
    finite = 0
    for kind in kinds:
        if w.nu < 0.0 and kind.name == "rhinf":
            continue
        sup = sup_ratio_search(w, kind, depth)[0]
        if sup < math.inf:
            finite += 1
            if all_pairs:
                brute = grid_pairs_max(w, kind, scans[-1][0])
                assert abs(sup - brute) <= 8.0 * math.ulp(brute), (kind, sup, brute)
    assert len(scans) == finite >= 2


def test_exponential_scan_with_a_negative_log_prefix():
    # the average of log w from 0 is below zero for nu > 0 and above it for nu
    # < 0, with a breakpoint at 1 or off the grid: -nu at a
    args = search_args(extremal_weight(2.0, 2.0, (1.0, 4.0), "plus"), FunctionalKind.a_inf(), 9)
    assert args[2].max() < 0.0 and args[7] == 512
    assert_bit_identical(*args)
    for nu in (-0.5, 0.5):
        args = search_args(PowerWeight(1.0, 0.3, nu), FunctionalKind.a_inf(), 9)
        assert np.all(np.sign(args[2]) == -np.sign(nu)) and args[2][-1] == -nu
        assert_bit_identical(*args)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_constant_weight_ties_resolve_to_the_first_pair(mode):
    # every pair ties at exactly 1: the averages of w = 1, with the Box-Cox
    # average 0, at lam = 0 (a_inf) and at lam = 2 (rh_p(2))
    grid, ones = np.arange(301, dtype=np.float64) / 300.0, np.ones(300)
    args = (grid, ones, np.zeros(300), 1.0, 0.0 if mode == 1 else 2.0, ones, mode, 300)
    assert max_pair_ratio(*args) == row_0_scan(*args) == reference_scan(*args) == (1.0, 0, 1)


def test_constant_weight_search_reports_the_first_interval():
    # a constant weight scores exactly 1 on every interval, whatever the
    # breakpoint
    kinds = [FunctionalKind.aq(4.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(3.0), FunctionalKind.rh_inf()]
    for a in (1.0, 0.3, 0.7071):
        for kind in kinds:
            assert sup_ratio_search(PowerWeight(3.0, a, 0.0), kind, 8) == (1.0, (0.0, 1.0 / 256.0))


class ScanCalled(Exception):
    pass


CONSTANT_KINDS = {
    0: [FunctionalKind.aq(4.0), FunctionalKind.rh_p(3.0)],
    1: [FunctionalKind.a_inf()],
    2: [FunctionalKind.rh_inf()],
}


@pytest.mark.parametrize("mode", sorted(CONSTANT_KINDS))
def test_constant_path_computes_no_bound(monkeypatch, mode):
    # nu = 0 is decided before any array is built: no scan runs, and the
    # result is what the scan gives on the averages of a constant weight,
    # also where the breakpoint lies below the first grid step
    def refuse(*args):
        raise ScanCalled

    monkeypatch.setattr(weights, "max_pair_ratio", refuse)
    depth = 6
    for kind in CONSTANT_KINDS[mode]:
        for a in (1.0, 0.3, 2.0**-9):
            got = sup_ratio_search(PowerWeight(3.0, a, 0.0), kind, depth)
            grid = np.arange(2**depth + 1, dtype=np.float64) / 2**depth
            grid = np.unique(np.concatenate([grid, [0.0, a, 1.0]]))
            ramp = int(grid.searchsorted(a))
            # the plain average 1, the Box-Cox average 0 (at lam = -1/3 for aq(4), and
            # 0 in mode 1), the cap 1
            lam = 0.0 if mode == 1 else -1.0 / 3.0
            best, i, j = row_0_scan(grid, np.ones(ramp), np.zeros(ramp), 1.0, lam, np.ones(ramp), mode, ramp)
            assert got == (best, (grid[i], grid[j])) == (1.0, (0.0, min(a, 2.0**-depth)))
        with pytest.raises(ScanCalled):
            sup_ratio_search(PowerWeight(3.0, 0.3, 0.5), kind, depth)


def exponential_mode_inputs():
    """The scan's arguments in the exponential mode, for the soundness of its bounds."""
    cases = {}
    for excess in (1e-12, 1e-6, 1e-3, 1.0):
        delta = 1.0 + excess
        w = extremal_weight(2.0, delta, (1.0, delta**2), "plus")
        cases[f"extremal delta-1={excess}"] = search_args(w, FunctionalKind.a_inf(), 10)
    # nu = 50 puts the average of log w near the origin at about -360; a breakpoint
    # off the grid, where the log average stops falling or rising
    for a, nu in ((0.5, -0.9), (0.5, 12.0), (0.5, 50.0), (0.3, -0.5), (0.3, 2.0)):
        cases[f"ramp a={a} nu={nu}"] = search_args(PowerWeight(1.0, a, nu), FunctionalKind.a_inf(), 10)
    return cases


def corner_phi(kind, nu, r, q=None):
    """Phi(r): the functional of t**nu on [r, 1], in closed form, r = 0 included."""
    def average(s):  # of t**s over [r, 1]
        e = s + 1
        return (-mp.log(r) if e == 0 else (1 - r**e) / e) / (1 - r)

    if kind == "aq":
        return average(nu) * average(-nu / (q - 1)) ** (q - 1)
    if kind == "rhp":  # q is the exponent p of RH_p
        return average(q * nu) ** (1 / q) / average(nu)
    if kind == "ainf":  # the average of log t over [r, 1] is (r - 1 - r log r)/(1 - r)
        return average(nu) * mp.exp(-nu * (r - 1 - (r * mp.log(r) if r else 0)) / (1 - r))
    return 1 / average(nu)  # rhinf: sup t**nu = 1 for nu >= 0


def test_corner_lemma_phi_is_nonincreasing_at_50_digits():
    # the lemma behind the corner bound, checked on a corpus of nu, q (or p) and r
    with mp.workdps(50):
        rs = [mp.mpf(10) ** -k for k in (15, 12, 9, 6, 4, 3, 2)]
        rs += [mp.mpf(x) / 10 for x in range(1, 10)]
        rs += [1 - mp.mpf(10) ** -k for k in (2, 4, 6, 8, 11)]
        nus = [mp.mpf(x) for x in ("-0.99", "-0.5", "-1e-6", "1e-6", "0.3", "1", "4", "25", "100")]
        exponents = [mp.mpf(x) for x in ("1.01", "1.5", "2", "10", "1e6")]
        cases = [("aq", nu, q) for nu in nus for q in exponents]
        cases += [("rhp", nu, t) for nu in nus for t in exponents if t * nu > -1]
        cases += [("ainf", nu, None) for nu in nus] + [("rhinf", nu, None) for nu in nus if nu > 0]
        for kind, nu, q in cases:
            phi = [corner_phi(kind, nu, r, q) for r in rs]
            assert all(x >= y for x, y in zip(phi, phi[1:])), (kind, nu, q)
            assert phi[0] > phi[-1], (kind, nu, q)


def lemma_pairs(kind, grid, integral, top=None):
    """{(i, j): F} for every pair i < j of ``grid``, mpf points: the kind's functional on
    [grid[i], grid[j]] from integral(theta, t), the integral of w**theta from 0 to t (of
    log w at theta = None), and for rh_inf top(t), ess sup w up to t, w nondecreasing."""
    e = kind.exponent and mp.mpf(kind.exponent)
    second, value = {
        "aq": (e and -1 / (e - 1), lambda a1, b, t: a1 * b ** (e - 1)),
        "rhp": (e, lambda a1, b, t: b ** (1 / e) / a1),
        "ainf": (None, lambda a1, b, t: a1 * mp.exp(-b)),
        "rhinf": (1, lambda a1, b, t: top(t) / a1),
    }[kind.name]
    p1, p2 = ([integral(theta, t) for t in grid] for theta in (1, second))
    values = {}
    for j in range(1, len(grid)):
        for i in range(j):
            length = grid[j] - grid[i]
            values[i, j] = value((p1[j] - p1[i]) / length, (p2[j] - p2[i]) / length, grid[j])
    return values


def lemma_violations(values, bound, tol=mp.mpf(10) ** -30):
    """(the pairs whose F passes ``bound``, the pairs (i, j) where F rises from alpha =
    grid[i] to grid[i + 1]), beyond the relative tolerance."""
    above = [ij for ij, v in values.items() if v > bound * (1 + tol)]
    rises = [(i, j) for (i, j), v in values.items() if i + 1 < j and values[i + 1, j] > v * (1 + tol)]
    return above, rises


def plateau_parts(a, nu):
    """integral and top (see lemma_pairs) of (min(t, a)/a)**nu at 50 digits, a and nu mpf."""
    def integral(theta, t):
        m = min(t, a)
        if theta is None:
            return nu * m * (mp.log(m / a) - 1) if m else mp.mpf(0)
        e = theta * nu + 1
        return a / e * (m / a) ** e + max(t - a, 0)

    return integral, lambda t: (min(t, a) / a) ** nu


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
    with mp.workdps(50):
        for w, kind, depth in cases:
            grid = np.unique(np.r_[np.arange(2**depth + 1) / 2**depth, w.a])
            ramp = int(grid.searchsorted(w.a))
            values = lemma_pairs(kind, [mp.mpf(float(g)) for g in grid], *plateau_parts(mp.mpf(w.a), mp.mpf(w.nu)))
            phi = phi_zero(w, kind)
            assert lemma_violations(values, phi) == ([], []), (w, kind, depth)
            assert abs(values[0, ramp] / phi - 1) <= mp.mpf(10) ** -30, (w, kind, depth)


def test_lemma_check_finds_the_two_step_counterexample():
    # the lemma needs the ramp-plateau form: on w = 1 on [0, 1/2] and 4 past it, a
    # monotone weight, A_inf is 1.25 on [0.4, 0.6] and 1.19 on [0, 0.6], so it rises
    # with alpha there, and it passes its value on [0, 1/2], 1, where w steps
    def integral(theta, t):
        past = max(t - half, 0)
        return past * mp.log(4) if theta is None else min(t, half) + 4**theta * past

    with mp.workdps(50):
        half, grid = mp.mpf(1) / 2, [mp.mpf(k) / 10 for k in range(11)]
        values = lemma_pairs(FunctionalKind.a_inf(), grid, integral)
        above, rises = lemma_violations(values, values[0, 5])
        assert values[0, 5] == 1 and float(values[4, 6]) == 1.25 and round(float(values[0, 6]), 2) == 1.19
        assert (4, 6) in above and {(0, 6), (1, 6), (2, 6)} <= set(rises)


def test_verify_near_delta_one_is_within_4_ulp_of_phi_zero(capsys):
    # the pure power's row [0] ties at Phi(0) in exact arithmetic, so the oracle
    # reports the largest rounding of that tie: 1.5 ulp here.  The block-pruned scan
    # printed sup=1.0000000000216525, 92,510 ulp above, at a pair near (0.9775,
    # 0.9775) whose rounding its envelopes could not bound below row [0]
    assert cli.main(["verify", "--p", "2", "--q", "10", "--delta", "1.000000000001", "--depth", "17"]) == 0
    rec = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
    delta = float(rec["delta"])
    w = extremal_weight(2.0, delta, (1.0, delta**2), "plus")
    assert w.a == 1.0 and rec["argmax_alpha"] == "0"
    phi = phi_zero(w, FunctionalKind.aq(10.0))
    assert abs(float(rec["sup"]) - phi) <= 4 * math.ulp(float(phi)), (rec["sup"], phi)


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
def test_scan_supremum_is_the_50_digit_phi_zero(monkeypatch, depth):
    # on a pure power the exact grid supremum is Phi(0) (the corner lemma); the
    # Box-Cox leaf adds no rounding that grows with q - 1: 1.8e-14 at most, where
    # the power form erred by 3.4e-10 at q = 1e6, 3.8e-6 at 1e10 and 6.4e17 at 1e14
    # (functional_ratio on [0, 1] by up to 9.7e-7 at 1e10 and 2.6e-3 at 1e14)
    if depth == 10:  # and the scan is its own pairs scored out of place, bit for bit
        monkeypatch.setattr(weights, "max_pair_ratio", lambda *args: assert_bit_identical(*args) or max_pair_ratio(*args))
    for label, w, kind in phi_zero_searches():
        sup = sup_ratio_search(w, kind, depth)[0]
        with mp.workdps(50):
            phi = corner_phi(kind.name, mp.mpf(w.nu), mp.mpf(0), kind.exponent and mp.mpf(kind.exponent))
            assert float(abs(sup - phi) / phi) <= 3e-14, (label, sup, phi)
            # and so is the closed form on [0, 1]
            closed = functional_ratio(w, kind, 0.0, 1.0)
            assert float(abs(closed - phi) / phi) <= 3e-14, (label, closed, phi)


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
    # the depth-12 search against Phi(0) in ulp of Phi(0): median 1.13 (1.67 from the
    # prefix integrals), upper curve at most 57.0 (74.0), plateaus at most 6.6 (1.54e6,
    # from aq at large q: lam nu > 0 took the prefix of w**lam, and log(B)/lam
    # multiplied its rounding by q - 1)
    cases = accuracy_corpus()
    assert len(cases) == 350
    ulps = {True: [], False: []}
    for w, kind in cases:
        sup = sup_ratio_search(w, kind, 12)[0]
        phi = phi_zero(w, kind)
        ulps[w.a < 1.0].append(float(abs(sup - phi)) / math.ulp(float(phi)))
    assert np.median(ulps[True] + ulps[False]) <= 1.5
    assert max(ulps[False]) <= 64.0 and max(ulps[True]) <= 8.0, (max(ulps[False]), max(ulps[True]))


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_scan_emits_no_float_warnings(mode):
    # inf and NaN are scored inside the oracle, under its own errstate, on rows
    # of 1 to 64 points
    grids = (np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]), np.linspace(0.0, 1.0, 5),
             np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 40))
    cases = [(grid, grid[1:], grid[1:], grid.size - 1) for grid in grids]
    # constant, zero, subnormal and overflowing averages: the Box-Cox average 0 of w
    # = 1, the plain average 0, which the oracle divides by; averages of 1e-310 and
    # -1e-315; and of 1e308 and 2e308 - 1, whose values overflow
    even, ones = np.linspace(0.0, 1.0, 65), np.ones(64)
    cases += [(even, ones, np.zeros(64), 64), (even, np.zeros(64), -ones, 64),
              (even, 1e-310 * ones, -1e-315 * ones, 64), (even, 1e308 * ones, np.full(64, np.inf), 64)]
    w = extremal_weight(2.0, 1.001, (1.0, 1.001**2), "plus")
    cases += [(*args[:3], args[7]) for args in (search_args(w, FunctionalKind.a_inf(), 1, grid) for grid in grids)]
    cases += [(*args[:3], args[7]) for args in exponential_mode_inputs().values()]
    # searches: at p = 1.01, delta = 2, nu is q_star - 1 = 6.9e30 and the average
    # underflows to 0 at all but the last point; aq(1e14) and aq(1e17) take lam =
    # -1e-14 and -1e-17 into log1p; a breakpoint between the last two grid points
    # leaves the plateau one point; breakpoints at g[1], g[2] and g[64] end row [0]
    # after 1, 2 or 64 pairs
    searches = [extremal_weight(1.01, 2.0, (1.0, 2.0**1.01), "plus"),
                extremal_weight(2.0, 2.0, (1.0, 4.0), "plus"), PowerWeight(1.0, 1.0 - 2.0**-10, 3.0)]
    searches += [PowerWeight(1.0, k / 512.0, 3.0) for k in (1, 2, 64)]
    kinds = {0: [FunctionalKind.aq(10.0), FunctionalKind.aq(1e14), FunctionalKind.aq(1e17), FunctionalKind.rh_p(2.0)],
             1: [FunctionalKind.a_inf()], 2: [FunctionalKind.rh_inf()]}[mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for grid, avg, box_cox, ramp in cases:
            for center in (1.0, 0.0):
                max_pair_ratio(grid, avg, box_cox, center, -1.0, avg, mode, ramp)
        for w in searches:
            for kind in kinds:
                sup_ratio_search(w, kind, 9)


def test_searches_give_the_scan_its_one_input(monkeypatch):
    # the scan checks none of this itself: a strictly increasing float64 grid from 0
    # to 1 with a at index ramp, and float64 averages over [0, g[j]] at index j - 1,
    # for 1 <= j <= ramp: the plain average first in every mode, monotone as w is, and
    # a nonnegative, nondecreasing cap in mode 2
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
                sup_ratio_search(w, kind, depth)
                for grid, avg, box_cox, center, lam, cap, mode, ramp in scans:
                    assert grid.dtype == np.float64 and grid.shape == (2**depth + 1 + (w.a * 2**depth % 1 > 0),)
                    assert np.all(np.diff(grid) > 0.0) and grid[0] == 0.0 and grid[-1] == 1.0
                    assert isinstance(ramp, int) and 1 <= ramp < grid.size and grid[ramp] == w.a
                    assert all(x.dtype == np.float64 and x.shape == (ramp,) for x in (avg, box_cox, cap))
                    assert np.all(np.diff(avg) * w.nu >= 0.0) and avg[-1] == 1.0 / (1.0 + w.nu)
                    assert mode == {"aq": 0, "rhp": 0, "ainf": 1, "rhinf": 2}[kind.name]
                    if mode == 2:
                        assert np.all(cap >= 0.0) and np.all(np.diff(cap) >= 0.0)
                    else:
                        # lam is the kind's, and center says whether box_cox is the average
                        # of w**lam - 1 (always where lam nu <= 0) or of w**lam; each
                        # averages a function of one sign
                        assert lam == weights._box_cox_exponent(kind) and center in (0.0, 1.0)
                        assert center or lam * w.nu > 0.0
                        assert np.all(box_cox >= 0.0) or np.all(box_cox <= 0.0)
                    kinds.add(kind.name)
    assert kinds == {"aq", "ainf", "rhp", "rhinf"}


def test_scan_interface_that_the_benchmark_tracer_reads(monkeypatch):
    # perfbench/tracing.py wraps weights.max_pair_ratio and reads its positional
    # arguments: the grid first, for the pair count, and the mode seventh, which
    # it labels 0 "moment" (aq and rh_p), 1 "exponential" (a_inf) and 2 "sup" (rh_inf)
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
            assert np.array_equal(args[0], np.arange(65) / 64.0)
            assert args[6] == mode


def search_peak(w, kind, depth):
    """The tracemalloc peak of one search, from the caches of its grid arrays."""
    sup_ratio_search(w, kind, depth)  # any first-call set-up, and the caches, untraced
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
    # NumPy reports its buffers to tracemalloc, so the peak repeats exactly: 0.38
    # MiB at either delta, three arrays of the n - 1 ramp points: the plain and
    # Box-Cox averages and the scores (0.75 with the caches emptied before the
    # traced search).  The ceiling is that peak plus 20%.  Before: 0.50 MiB from the
    # prefix integrals over the grid, 0.38 when the block-pruned scan read row [0]
    # in slices of 8,192 pairs, 4.4 MiB with an array over all ramp block pairs and
    # 7.6 MiB when the chord-and-slope bounds covered every one
    peak = extremal_peak(delta, 14)
    assert peak < 0.45 * 2**20, peak


def test_search_peak_allocation_grows_linearly():
    # 4x the points from depth 14 to 16: linear memory gives at most about 4x
    # the peak (4.0x here), an array over all pairs about 16x
    ratio = extremal_peak(2.0, 16) / extremal_peak(2.0, 14)
    assert ratio <= 5.0, ratio


def test_plateau_search_peak_allocation():
    # the oracle reads row [0] up to a = 0.1 alone: 0.038 MiB at depth 14, three
    # arrays of a tenth of the points (0.25 with the caches emptied before the traced
    # search, the grid's build).  The ceiling is that peak plus 20%.  Before: 0.28
    # MiB from the prefix integrals over the whole grid (0.77 cold), 1.59 when the
    # block-pruned scan kept every row open on a plateau, with its block pairs'
    # bounds, and 3.81 with the chord-and-slope bounds and their per-block slopes
    peak = search_peak(PowerWeight(1.0, 0.1, 3.0), FunctionalKind.a_inf(), 14)
    assert peak < 0.046 * 2**20, peak


def cached_arrays(entry):
    """The arrays of a cache entry, its nested tuples flattened."""
    if isinstance(entry, tuple):
        return [x for part in entry for x in cached_arrays(part)]
    return [entry] if isinstance(entry, np.ndarray) else []


@pytest.mark.parametrize("depth", [5, 9, 12, 14])
def test_warm_caches_change_no_search(depth):
    # every kind on the p = 2 extremal weights of the upper curve and the p = inf
    # one, the PLATEAUS and the extremal weights of an interior point: a search
    # with the grid cache empty, and again from it, gives the same repr
    upper = [extremal_weight(2.0, 1.001, (1.0, 1.001**2), branch) for branch in ("plus", "minus")]
    upper.append(extremal_weight(math.inf, 1.001, (1.0, 1.001), "plus"))
    interior = [extremal_weight(2.5, 1.6, (1.0, 1.5), branch) for branch in ("plus", "minus")]
    searched = 0
    for w in upper + PLATEAUS + interior:
        for kind in ALL_KINDS:
            if w.nu < 0.0 and kind.name == "rhinf":
                continue
            weights._dyadic_parts.cache_clear()
            cold = repr(sup_ratio_search(w, kind, depth))
            if not weights._dyadic_parts.cache_info().currsize:
                continue  # rh_p(3) diverges at 0 where 3 nu <= -1, with no scan
            hits = weights._dyadic_parts.cache_info().hits
            assert repr(sup_ratio_search(w, kind, depth)) == cold, (w, kind)
            assert weights._dyadic_parts.cache_info().hits == hits + 1
            entries = cached_arrays(weights._dyadic_parts(depth, w.a))
            assert len(entries) == 3
            for x in entries:
                with pytest.raises(ValueError):
                    x[...] = 0.0
            searched += 1
    assert searched == 31


@pytest.mark.parametrize("name,fn", SCANS)
def test_tie_resolution_is_lexicographic(name, fn):
    # a constant ratio field must report the first pair: the averages of w = 1,
    # with the Box-Cox average 0
    grid, ones = np.linspace(0.0, 1.0, 9), np.ones(8)
    best, i, j = fn(grid, ones, np.zeros(8), 1.0, -0.5, ones, 0, 8)
    assert best == 1.0
    assert (i, j) == (0, 1)


def nan_and_inf_inputs(mode, e1):
    """Cases (the scan's arguments, the expected result) on the power_weight_inputs
    weight over the 130 points of scan_grids(130), with a = BREAK at index 91: row
    [0] holding NaN, +inf and -inf up to a."""
    grid = scan_grids(130)["injected breakpoint"]
    cases = {}

    def infinite(j, sign):  # the pair (0, j) scores sign * inf
        _, avg, box_cox, _, _, cap, _, _ = args
        if mode == 2:
            cap[j - 1] = sign * np.inf
        elif mode == 0 and e1 != 1.0:  # rh_p from exp(G) / A: +inf from B, -inf from A = -0.0
            (box_cox.__setitem__(j - 1, np.inf) if sign > 0 else avg.__setitem__(j - 1, -0.0))
        else:
            avg[j - 1] = sign * np.inf

    # the maximum, +inf, at (0, 60), after 39 NaN
    args = power_weight_inputs(grid, mode, e1)
    args[1][:39] = np.nan
    infinite(60, 1)
    cases["NaN before the maximum"] = args, (math.inf, 0, 60)
    # -inf at (0, 50) and +inf at (0, 51)
    args = power_weight_inputs(grid, mode, e1)
    infinite(50, -1)
    infinite(51, 1)
    cases["+inf and -inf"] = args, (math.inf, 0, 51)
    # NaN everywhere but one -inf: all tie at -inf, so the first pair
    args = power_weight_inputs(grid, mode, e1)
    args[1][:] = np.nan
    args[1][69] = 0.5
    infinite(70, -1)
    cases["NaN or -inf only"] = args, (-math.inf, 0, 1)
    return cases


@pytest.mark.parametrize("e1", [1.0, 0.7])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_row_0_scores_nan_as_minus_inf_and_keeps_inf(mode, e1):
    for name, (args, expected) in nan_and_inf_inputs(mode, e1).items():
        assert args[7] == 91, name
        assert max_pair_ratio(*args) == row_0_scan(*args) == expected, name


BREAK = 0.7071


def scan_grids(n):
    """Grids of n points on [0, 1]: evenly spaced, to which the search adds the
    off-grid breakpoint BREAK, and n - 1 evenly spaced with BREAK injected."""
    coarse = np.arange(n - 1, dtype=np.float64) / max(n - 2, 1)
    return {
        "increasing": np.arange(n, dtype=np.float64) / (n - 1),
        "injected breakpoint": np.insert(coarse, coarse.searchsorted(BREAK), BREAK),
    }


def power_weight_inputs(grid, mode, e1):
    """The scan's arguments, as sup_ratio_search builds them on ``grid`` with
    BREAK inserted, for the weight (t/BREAK)**0.5 and then 1: in mode 0 aq(3) at
    e1 = 1, or else rh_p(1/e1), whose intervals [0, b] tie, a_inf in mode 1 and
    rh_inf in mode 2, where e1 picks nothing."""
    kind = {1: FunctionalKind.a_inf(), 2: FunctionalKind.rh_inf()}.get(mode)
    kind = kind or (FunctionalKind.aq(3.0) if e1 == 1.0 else FunctionalKind.rh_p(1.0 / e1))
    args = search_args(PowerWeight(1.0, BREAK, 0.5), kind, 1, grid)
    assert args[0][args[7]] == BREAK and args[6] == mode
    return args

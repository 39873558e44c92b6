"""The block-pruned pair scan against brute-force references."""

import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from sharpweights import FunctionalKind, PowerWeight, extremal_weight, functional_ratio, sup_ratio_search
from sharpweights import _pairscan, weights
from sharpweights._pairscan import _LOWEST, max_pair_ratio

ROOT = Path(__file__).resolve().parent.parent
_REF_ROWS = 256


def box_cox_value(a1, b, e1, e2):
    """A_q, A_inf or RH_t from the plain average A = a1 and the average b of
    the second prefix, that of w**lam - e1 (of log w at lam = 0): A exp(-G),
    or exp(G)/A where lam = e2 > 0, with G = log(e1 + b)/lam, and b at lam = 0."""
    if e2 == 0.0:
        return a1 * np.exp(-b)
    g = (np.log1p(b) if e1 else np.log(b)) * (1.0 / abs(e2))
    return np.exp(g) / a1 if e2 > 0.0 else a1 * np.exp(g)


def brute_values(grid, p1, p2, e1, e2, cap, mode, rows, cols=slice(None)):
    """The mode's ratio on rows x cols, and the interval lengths.

    Modes 0 and 1 -> box_cox_value(d1/L, d2/L, e1, e2), 2 -> cap[j] / (d1/L).
    """
    length = grid[None, cols] - grid[rows, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a1 = (p1[None, cols] - p1[rows, None]) / length
        if mode == 2:
            vals = cap[None, cols] / a1
        else:
            vals = box_cox_value(a1, (p2[None, cols] - p2[rows, None]) / length, e1, e2)
    return vals, length


def brute_scores(vals, length):
    """Empty intervals and -inf score the lowest float, NaN scores -inf."""
    vals[length <= 0.0] = -np.inf
    return np.nan_to_num(vals, copy=False, nan=-np.inf, posinf=np.inf)


def brute_force_scan(grid, p1, p2, e1, e2, cap, mode, ramp=None):
    """Every pair, _REF_ROWS rows at a time: the bit-identity reference
    (the ramp only lets the pruned scan prune more).

    Ties resolve to the first (i, j) in row-major order because only a
    strict improvement replaces the incumbent.
    """
    g = np.asarray(grid, dtype=np.float64)
    q1 = np.asarray(p1, dtype=np.float64)
    q2 = np.asarray(p2, dtype=np.float64)
    cp = np.asarray(cap, dtype=np.float64)
    n = g.size
    if n < 2:
        raise ValueError("need at least two grid points")
    best = -np.inf
    bi, bj = 0, 1
    for lo in range(0, n - 1, _REF_ROWS):
        hi = min(lo + _REF_ROWS, n - 1)
        vals = brute_scores(*brute_values(g, q1, q2, e1, e2, cp, mode, slice(lo, hi)))
        flat = int(np.argmax(vals))
        r, c = divmod(flat, n)
        v = float(vals[r, c])
        if v > best:
            best = v
            bi, bj = lo + r, c
    return best, bi, bj


def reference_scan(grid, p1, p2, e1, e2, cap, mode):
    """Plain double loop with the same strict-improvement tie rule."""
    best, bi, bj = -math.inf, 0, 1
    n = len(grid)
    for i in range(n - 1):
        for j in range(i + 1, n):
            length = grid[j] - grid[i]
            if length <= 0.0:
                continue
            a1 = (p1[j] - p1[i]) / length
            b = (p2[j] - p2[i]) / length
            try:
                if mode == 2:
                    v = cap[j] / a1
                elif e2 == 0.0:
                    v = a1 * math.exp(-b)
                else:
                    g = (math.log1p(b) if e1 else math.log(b)) / abs(e2)
                    v = math.exp(g) / a1 if e2 > 0.0 else a1 * math.exp(g)
            except (ValueError, ZeroDivisionError):
                continue
            except OverflowError:  # of exp, on positive averages
                v = math.inf
            if math.isnan(v):
                continue
            if v > best:
                best, bi, bj = v, i, j
    return best, bi, bj


# the pruned scan, and the brute-force reference it must reproduce
SCANS = [("numpy", max_pair_ratio), ("brute", brute_force_scan)]


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


def random_inputs(rng, depth, mode):
    """The scan's arguments for a random weight c (t/a)**nu and kind of the mode:
    c in [1e-3, 1e3], a in (0, 1] and mostly off the grid, |nu| in [0.01, 63],
    of either sign but in mode 2, where the kind needs nu >= 0."""
    while True:
        nu = float(10.0 ** rng.uniform(-2.0, 1.8)) * (1.0 if mode == 2 or rng.random() < 0.5 else -1.0)
        a = float(1.0 - rng.random()) if rng.random() < 0.8 else 1.0
        w = PowerWeight(float(10.0 ** rng.uniform(-3.0, 3.0)), a, nu)
        args = search_args(w, random_kind(rng, mode), depth)
        if args is not None:  # none where the moment diverges at 0
            return args


def assert_bit_identical(*args):
    assert max_pair_ratio(*args) == brute_force_scan(*args)


@pytest.mark.parametrize("name,fn", SCANS)
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_backend_matches_reference(name, fn, mode):
    rng = np.random.default_rng(20240814 + mode)
    for trial in range(5):
        args = random_inputs(rng, 5, mode)
        expected = reference_scan(*args[:7])
        got = fn(*args)
        assert got[1] == expected[1] and got[2] == expected[2]
        assert got[0] == pytest.approx(expected[0], rel=1e-13)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_pruned_scan_is_bit_identical_on_random_prefixes(mode):
    # the prefixes of random power weights, as the search builds them
    rng = np.random.default_rng(31 + mode)
    for depth in (6, 6, 6, 8, 8):
        assert_bit_identical(*random_inputs(rng, depth, mode))


def random_power_weights():
    """1,000 searches' inputs, a third of them in each mode: random c, a mostly
    off the grid, nu of both signs, every kind, q up to 1e14, depths 6 to 9."""
    rng = np.random.default_rng(26)
    for k in range(1000):
        yield random_inputs(rng, int(rng.choice([6, 6, 7, 7, 8, 9])), k % 3)


def test_random_power_weights_are_bit_identical():
    for args in random_power_weights():
        assert_bit_identical(*args)


def test_generic_bounds_in_chunks_are_bit_identical(monkeypatch):
    # the rows that their row bound leaves open take their block pairs' bounds
    # 2 rows a call over the 12 blocks of a plateau weight's depth-8 grids: every
    # row but [0], 11, so the last chunk is short, as a plateau leaves no row
    # bound; with no plateau 3 rows a call over 11 blocks, all 9 rows that hold a
    # pair, where the envelope is +inf: the minus weight's aq(1e14), as lam nu > 0
    # leaves p2 the prefix of w**lam, whose rounding log(B)/lam multiplies by
    # q - 1 (it puts the maximum at (140, 141)); and where the margin is below
    # the rounding, at delta - 1 = 1e-12
    monkeypatch.setattr(_pairscan, "_CHUNK", 33)
    plateau = PowerWeight(1.0, 0.3, 2.0)
    for kind in ALL_KINDS:
        args = search_args(plateau, kind, 8)
        assert _pairscan._partition(args[0].size, args[7])[0].size == 12
        assert_bit_identical(*args)
    monkeypatch.setattr(weights, "max_pair_ratio", lambda *args: assert_bit_identical(*args) or (1.0, 0, 1))
    for delta, q, branch in ((1.5, 1e14, "minus"), (1.0 + 1e-12, 10.0, "plus")):
        w = extremal_weight(2.0, delta, (1.0, delta**2), branch)
        sup_ratio_search(w, FunctionalKind.aq(q), 8)


# weights with a plateau: a on the grid (0.5), off it (0.1, 0.7071), and at the first step of depth 12
PLATEAUS = [PowerWeight(1.0, 0.5, 3.0), PowerWeight(2.0, 0.1, -0.5), PowerWeight(1e-3, 0.7071, 0.5),
            PowerWeight(5.0, 2.0**-12, 7.0)]
ALL_KINDS = [FunctionalKind.aq(10.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(3.0), FunctionalKind.rh_inf()]
PLATEAU_IDS = {f"plateau a={w.a:.4g}": w for w in PLATEAUS}


@pytest.mark.parametrize("weight", ["positive", "negative", *PLATEAU_IDS])
@pytest.mark.parametrize("corner", [True, False])
def test_pruned_scan_is_bit_identical_on_extremal_weights(monkeypatch, weight, corner):
    # with the corner bound, and with the two-corner bound alone, as where the
    # corner bound is +inf: past the ramp, which only a plateau has
    scans = []

    def checked(*args):
        expected = brute_force_scan(*args)
        assert max_pair_ratio(*args) == expected
        scans.append(args[6])
        return expected

    monkeypatch.setattr(weights, "max_pair_ratio", checked)
    if not corner:
        monkeypatch.setattr(_pairscan, "_corner_bounds", lambda *args: np.full(np.shape(args[-2][0]), np.inf))
    if weight.startswith("plateau"):
        w, kinds = PLATEAU_IDS[weight], ALL_KINDS
    else:
        # an interior point, so the weight has both a ramp and a plateau;
        # q = 5 lies above q_star and t = 2 below t_star at p = 2.5, delta = 1.6
        w = extremal_weight(2.5, 1.6, (1.0, 1.5), "plus" if weight == "positive" else "minus")
        assert (w.nu > 0.0) == (weight == "positive") and w.a < 1.0
        kinds = [FunctionalKind.aq(5.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(2.0), FunctionalKind.rh_inf()]
    # rh_inf needs nu >= 0, and rh_p(3) diverges at 0 where 3 nu <= -1, with no scan
    finite = [sup_ratio_search(w, kind, 9)[0] < math.inf for kind in kinds if w.nu >= 0.0 or kind.name != "rhinf"]
    assert len(scans) == sum(finite) >= 2


def test_exponential_scan_with_a_negative_log_prefix():
    # the log prefix of a weight with nu > 0 falls below zero, that of one with
    # nu < 0 rises above it, with a breakpoint at 1 or off the grid
    args = search_args(extremal_weight(2.0, 2.0, (1.0, 4.0), "plus"), FunctionalKind.a_inf(), 9)
    assert args[2].min() < 0.0 and args[7] == 512
    assert_bit_identical(*args)
    for nu in (-0.5, 0.5):
        args = search_args(PowerWeight(1.0, 0.3, nu), FunctionalKind.a_inf(), 9)
        assert np.sign(args[2][-1]) == -np.sign(nu)
        assert_bit_identical(*args)


def test_ramp_scan_finds_a_maximum_past_the_ramp_off_row_0():
    # A_q of w = (t/0.3)**-0.01 and then 1 at q = 1e10: lam nu > 0, so p2 is the
    # prefix of w**lam, whose rounding log(B)/lam multiplies by q - 1; every exact
    # average on the plateau is 1, but that rounding puts the computed maximum on
    # the plateau, at (257, 258), where only the two-corner bound holds
    args = search_args(PowerWeight(1.0, 0.3, -0.01), FunctionalKind.aq(1e10), 9)
    expected = brute_force_scan(*args)
    assert expected[1:] == (257, 258) and args[7] == 154 and args[3] == 0.0
    assert max_pair_ratio(*args) == expected


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_constant_weight_ties_resolve_to_the_first_pair(mode):
    # every pair of every block ties at exactly 1
    grid = np.arange(301, dtype=np.float64) / 300.0
    # w = 1 has the Box-Cox prefix 0, at lam = 0 (a_inf) and at lam = 2 (rh_p(2))
    args = (grid, grid, np.zeros_like(grid), 1.0, 0.0 if mode == 1 else 2.0, np.ones_like(grid), mode, 300)
    assert max_pair_ratio(*args) == brute_force_scan(*args) == (1.0, 0, 1)


def test_constant_weight_search_reports_the_first_interval():
    # a constant weight's prefix integrals are the grid itself, whatever
    # the breakpoint, so every interval scores exactly 1
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
    # result is what the full scan gives on the arrays of a constant
    # weight, also where the breakpoint lies below the first grid step
    def refuse(*args):
        raise ScanCalled

    monkeypatch.setattr(weights, "max_pair_ratio", refuse)
    depth = 6
    for kind in CONSTANT_KINDS[mode]:
        for a in (1.0, 0.3, 2.0**-9):
            got = sup_ratio_search(PowerWeight(3.0, a, 0.0), kind, depth)
            grid = np.arange(2**depth + 1, dtype=np.float64) / 2**depth
            grid = np.unique(np.concatenate([grid, [0.0, a, 1.0]]))
            # the plain prefix is the grid, the Box-Cox prefix 0 (at lam = -1/3 for aq(4),
            # and 0 in mode 1), the cap 1
            lam = 0.0 if mode == 1 else -1.0 / 3.0
            best, i, j = brute_force_scan(grid, grid, np.zeros_like(grid), 1.0, lam, np.ones_like(grid), mode)
            assert got == (best, (grid[i], grid[j])) == (1.0, (0.0, min(a, 2.0**-depth)))
        with pytest.raises(ScanCalled):
            sup_ratio_search(PowerWeight(3.0, 0.3, 0.5), kind, depth)


def test_constant_path_needs_a_finite_span():
    # 1e308 - (-1e308) overflows, and inf / inf is NaN, not 1
    grid = np.array([-1e308, 1e308])
    args = (grid, grid, grid, 1.0, 1.0, np.ones(2), 0, 1)
    with np.errstate(over="ignore"):
        assert max_pair_ratio(*args) == brute_force_scan(*args) == (_LOWEST, 0, 0)


def exponential_mode_inputs():
    """The scan's arguments in the exponential mode, for the soundness of its bounds."""
    cases = {}
    for excess in (1e-12, 1e-6, 1e-3, 1.0):
        delta = 1.0 + excess
        w = extremal_weight(2.0, delta, (1.0, delta**2), "plus")
        cases[f"extremal delta-1={excess}"] = search_args(w, FunctionalKind.a_inf(), 10)
    # nu = 50 puts the average of log w near the origin at about -360; a breakpoint
    # off the grid, where the log prefix stops falling or rising
    for a, nu in ((0.5, -0.9), (0.5, 12.0), (0.5, 50.0), (0.3, -0.5), (0.3, 2.0)):
        cases[f"ramp a={a} nu={nu}"] = search_args(PowerWeight(1.0, a, nu), FunctionalKind.a_inf(), 10)
    return cases


def partitions(n, ramp):
    """The scan's graded blocks and uniform blocks of _BLOCK, both split after
    the ramp, each as the (first, last) index of every block."""
    uniform = np.unique(np.r_[np.arange(0, n, _pairscan._BLOCK), ramp + 1])
    uniform = uniform[uniform < n]
    return {"graded": _pairscan._partition(n, ramp), "uniform": (uniform, np.append(uniform[1:] - 1, n - 1))}


def block_maxima(grid, p1, p2, e1, e2, cap, mode, first):
    """The largest computed pair value of each block pair, [I, J], of the
    blocks that start at ``first``, over its pairs i < j; -inf where it
    has none."""
    vals = brute_scores(*brute_values(grid, p1, p2, e1, e2, cap, mode, slice(0, grid.size)))
    vals[np.tril_indices(grid.size)] = -np.inf
    return np.maximum.reduceat(np.maximum.reduceat(vals, first, axis=0), first, axis=1)


def holding_a_pair(first, last):
    """(I, J): the block pairs I <= J that hold a pair i < j."""
    return np.nonzero(np.triu(last > first[:, None]))


def two_corner_bounds(grid, p1, p2, e1, e2, cap, mode, ramp, first, last, blocks):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eps = _pairscan._prefix_rounding(grid, p1, p2, e1, e2, ramp)
        return _pairscan._block_bounds(grid, p1, p2, cap, e1, e2, mode, eps, first, last, blocks)


def test_exponential_bounds_hold_every_pair_value():
    for name, args in exponential_mode_inputs().items():
        grid, ramp = args[0], args[7]
        for kind, (first, last) in partitions(grid.size, ramp).items():
            blocks = holding_a_pair(first, last)
            best = block_maxima(*args[:7], first)[blocks]
            assert np.all(two_corner_bounds(*args, first, last, blocks) >= best), (kind, name)


def corner_cases():
    """(label, weight, kind): extremal weights on the upper curve at p = 2
    (nu > 0 on the plus branch, nu < 0 on the minus branch for rh_p), and
    one at an interior point, whose breakpoint a is below 1."""
    cases = []
    for excess in (1e-12, 1e-8, 1e-4, 1.0):
        delta = 1.0 + excess
        plus = extremal_weight(2.0, delta, (1.0, delta**2), "plus")
        top = extremal_weight(math.inf, delta, (1.0, delta), "plus")
        cases += [(f"aq({q}) delta-1={excess}", plus, FunctionalKind.aq(q)) for q in (1.01, 10.0, 1e6, 1e14)]
        minus = extremal_weight(2.0, delta, (1.0, delta**2), "minus")
        cases += [(f"ainf delta-1={excess}", plus, FunctionalKind.a_inf()),
                  (f"rhinf delta-1={excess}", top, FunctionalKind.rh_inf())]
        cases += [(f"rhp({t}) delta-1={excess}", minus, FunctionalKind.rh_p(t)) for t in (1.01, 1.5, 10.0)]
    inner = extremal_weight(2.5, 1.6, (1.0, 1.5), "plus")
    assert inner.a < 1.0
    kinds = (FunctionalKind.aq(5.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(2.0), FunctionalKind.rh_inf())
    return cases + [(f"{kind.name} at an interior point", inner, kind) for kind in kinds]


def test_corner_bounds_hold_every_pair_value(monkeypatch):
    scans = []
    monkeypatch.setattr(weights, "max_pair_ratio", lambda *args: scans.append(args) or (1.0, 0, 1))
    binds = 0
    plateaus = [(f"{kind.name} on {w}", w, kind) for w in PLATEAUS for kind in ALL_KINDS]
    for label, w, kind in corner_cases() + plateaus:
        scans.clear()
        if w.nu < 0.0 and kind.name == "rhinf" or sup_ratio_search(w, kind, 9)[0] == math.inf:
            continue  # aq(1.01) diverges at 0 once nu >= 0.01, with no scan
        grid, p1, p2, e1, e2, cap, mode, ramp = scans[0]
        first, last = _pairscan._partition(grid.size, ramp)
        assert grid[ramp] == w.a and ramp in last, label
        best = block_maxima(grid, p1, p2, e1, e2, cap, mode, first)
        # the two-corner bound alone holds every block pair, past the ramp too
        blocks = holding_a_pair(first, last)
        two = two_corner_bounds(*scans[0], first, last, blocks)
        assert np.all(two >= best[blocks]), label
        # the corner bound every block pair of the ramp but row [0], which the scan scores first
        ramp_pairs = (blocks[0] > 0) & (last[blocks[1]] <= ramp)
        blocks = blocks[0][ramp_pairs], blocks[1][ramp_pairs]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eps = _pairscan._prefix_rounding(grid, p1, p2, e1, e2, ramp)
            corner = _pairscan._corner_bounds(grid, p1, p2, cap, e1, e2, mode, eps, first, last, ramp, blocks,
                                              last[blocks[1]])
        assert np.all(corner >= best[blocks]), label
        binds += np.count_nonzero(corner < two[ramp_pairs])
    assert binds > 0


def test_row_corner_bounds_hold_every_pair_value(monkeypatch):
    # where the ramp ends at the last point and the one corner bound below does not
    # close the scan (here it never does), the scan bounds each block row I >= 1 that
    # holds a pair by one corner value, (first[I], n - 1), widened by the envelope at
    # the row's innermost pair; on a plateau every row reaches past the ramp, and the
    # scan takes no row bound
    scans, rows = [], []
    monkeypatch.setattr(weights, "max_pair_ratio", lambda *args: scans.append(args) or (1.0, 0, 1))
    monkeypatch.setattr(_pairscan, "_power_bound", lambda *args: math.inf)
    corner_bounds = _pairscan._corner_bounds

    def recorded(*args):
        bound = corner_bounds(*args)
        if np.ndim(args[-1]) == 0:  # a row call: its corner column is the last
            rows.append((args[-2][0], bound))
        return bound

    monkeypatch.setattr(_pairscan, "_corner_bounds", recorded)
    closed = 0
    for label, w, kind in corner_cases():
        scans.clear()
        if sup_ratio_search(w, kind, 9)[0] == math.inf:
            continue  # aq(1.01) diverges at 0 once nu >= 0.01, with no scan
        grid, p1, p2, e1, e2, cap, mode, ramp = scans[0]
        n = grid.size
        rows.clear()
        max_pair_ratio(*scans[0])
        if ramp < n - 1:
            assert rows == [], label
            continue
        (R, bound), = rows
        first, last = _pairscan._partition(n, ramp)
        assert np.array_equal(R, 1 + np.flatnonzero(first[1:] < n - 1)), label
        vals = brute_scores(*brute_values(grid, p1, p2, e1, e2, cap, mode, slice(0, n)))
        vals[np.tril_indices(n)] = -np.inf
        top = np.maximum.reduceat(vals.max(axis=1), first)
        assert np.all(bound >= top[R]), label
        closed += np.count_nonzero(bound < np.inf)
    assert closed > 0


def test_one_corner_bound_holds_every_pair_off_row_0(monkeypatch):
    # where the ramp ends at the last point, one corner value, (1, n - 1), widened by
    # the scalar envelope, or by the largest envelope of the rows, bounds every pair
    # off row [0], or is +inf.  It closes the scans of the corner cases after row [0]
    # but at delta - 1 = 1e-12, where every value is rounding (there it closes
    # aq(1.01) alone); on the minus weight, where p2 is the prefix of w**lam, its
    # envelope grows with q - 1 until the bound is +inf at aq(1e10).  With no best
    # to beat (+inf) the bound is widened by the scalar envelope wherever that is
    # within _ENVELOPE, and by the rows' envelope where the scalar one is +inf
    scans = []
    monkeypatch.setattr(weights, "max_pair_ratio", lambda *args: scans.append(args) or (1.0, 0, 1))
    minus = extremal_weight(2.0, 1.5, (1.0, 2.25), "minus")
    cases = corner_cases() + [(f"minus aq({q})", minus, FunctionalKind.aq(q)) for q in (1e3, 1e8, 1e10)]
    closes, stays_open, infinite = [], [], []
    for label, w, kind in cases:
        scans.clear()
        if sup_ratio_search(w, kind, 9)[0] == math.inf:
            continue  # aq(1.01) diverges at 0 once nu >= 0.01, with no scan
        grid, p1, p2, e1, e2, cap, mode, ramp = scans[0]
        n = grid.size
        if ramp < n - 1:
            continue
        vals = brute_scores(*brute_values(grid, p1, p2, e1, e2, cap, mode, slice(1, n)))
        row0 = brute_scores(*brute_values(grid, p1, p2, e1, e2, cap, mode, slice(0, 1))).max()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eps = _pairscan._prefix_rounding(grid, p1, p2, e1, e2, ramp)
            rows = _pairscan._layout(n, ramp, _pairscan._SLICE)[4]
            args = (grid, p1, p2, cap, e1, e2, mode, eps, rows)
            (closes if _pairscan._power_bound(*args, row0) < row0 else stays_open).append(label)
            bounds = [_pairscan._power_bound(*args, math.inf)]
            with monkeypatch.context() as patch:
                patch.setattr(_pairscan, "_power_envelope", lambda *args: math.inf)
                bounds.append(_pairscan._power_bound(*args, math.inf))
        assert all(bound == math.inf or bound >= vals.max() for bound in bounds), label
        assert bounds[0] >= bounds[1], label
        if bounds[1] == math.inf:
            infinite.append(label)
    assert "aq(100000000000000.0) delta-1=1.0" in closes and "minus aq(100000000.0)" in closes
    assert infinite == ["minus aq(10000000000.0)"] and len(closes) == 27
    assert all("delta-1=1e-12" in label for label in stays_open if label not in infinite), stays_open


def pure_power_scans(source):
    """(label, scan arguments) of the scans whose ramp is the last point: of the
    corner_cases() at depth 9 and the minus weight's aq(1e3), aq(1e8) and aq(1e10),
    or of the 1,000 random power weights."""
    if source == "random":
        cases = [(f"random {k}", args) for k, args in enumerate(random_power_weights())]
    else:
        minus = extremal_weight(2.0, 1.5, (1.0, 2.25), "minus")
        searches = corner_cases() + [(f"minus aq({q})", minus, FunctionalKind.aq(q)) for q in (1e3, 1e8, 1e10)]
        cases = [(label, search_args(w, kind, 9)) for label, w, kind in searches]
    return [(label, args) for label, args in cases if args is not None and args[7] == args[0].size - 1]


def power_envelopes(grid, p1, p2, e1, e2, cap, mode, ramp):
    """(the scalar envelope, the rows' envelopes) of a scan whose ramp is the last point."""
    f, i, j = _pairscan._layout(grid.size, ramp, _pairscan._SLICE)[4]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eps = _pairscan._prefix_rounding(grid, p1, p2, e1, e2, ramp)
        rows = _pairscan._envelope(grid, p1, p2, e1, e2, mode, eps, ramp, np.log(grid[ramp] / grid[f]), i, j)
        return _pairscan._power_envelope(grid, p1, p2, e1, e2, mode, eps), rows


# (scans, those whose scalar envelope is within _ENVELOPE) of each pure_power_scans source
SCALAR_FINITE = {"corner cases": (36, 31), "random": (195, 148)}


@pytest.mark.parametrize("source", sorted(SCALAR_FINITE))
def test_scalar_envelope_is_at_least_every_row_envelope(monkeypatch, source):
    # _power_envelope takes the rows' maxima apart: the smallest |dP| of the unit cells
    # at [1, 2] or [n - 2, n - 1], less 4 eps |P[n - 1]|, |P| at most |P[n - 1]|, and
    # beta and Lam at g[1].  It is at least every row's envelope, which is at least
    # _LEAST; and with either envelope +inf, so that the other decides alone, the scan
    # stays bit-identical to brute force
    scans = pure_power_scans(source)
    finite = 0
    for label, args in scans:
        scalar, rows = power_envelopes(*args)
        assert np.all(rows >= _pairscan._LEAST) and scalar >= rows.max(), (label, scalar, rows.max())
        finite += scalar <= _pairscan._ENVELOPE
    assert (len(scans), finite) == SCALAR_FINITE[source]
    expected = [brute_force_scan(*args) for _, args in scans]
    for name, inf in (("_power_envelope", lambda *args: math.inf), ("_envelope", lambda *args: np.float64(np.inf))):
        with monkeypatch.context() as patch:
            patch.setattr(_pairscan, name, inf)
            for (label, args), result in zip(scans, expected):
                assert max_pair_ratio(*args) == result, (name, label)


def certificate_searches(seeds):
    """(weight, kind) of the four grid searches of each verify_certificate draw of the
    benchmark's seeds, as perfbench/workloads.py builds them."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    searches = []
    for seed in seeds:
        for d in inputs.certificate_inputs(seed):
            plus, minus = (extremal_weight(d.p, d.delta, (1.0, d.delta**d.p), branch) for branch in ("plus", "minus"))
            top = extremal_weight(math.inf, d.delta, (1.0, d.delta), "plus")
            searches += [(plus, FunctionalKind.aq(d.q)), (plus, FunctionalKind.a_inf()),
                         (minus, FunctionalKind.rh_p(d.t)), (top, FunctionalKind.rh_inf())]
    return searches


# of the 420 depth-12 scans of the verify_certificate draws of seeds 1-3 (at delta = 1
# no search scans), those the scalar envelope closes; the rows' envelopes close the
# other 64 (51 rh_p, 8 aq and 5 a_inf), where R_B / |B| peaks at the last cell and
# beta at g[1]
SCALAR_CLOSES = 356


def test_scalar_envelope_closes_most_certificate_scans(monkeypatch):
    power_bound, envelope = _pairscan._power_bound, _pairscan._envelope
    bounds, rows = [], []
    monkeypatch.setattr(_pairscan, "_power_bound", lambda *args: bounds.append(args) or power_bound(*args))
    monkeypatch.setattr(_pairscan, "_envelope", lambda *args: rows.append(args) or envelope(*args))
    scans = closes = 0
    for w, kind in certificate_searches((1, 2, 3)):
        bounds.clear()
        rows.clear()
        sup_ratio_search(w, kind, 12)
        if not bounds:
            continue  # delta = 1: the weight is constant, with no scan
        (args,) = bounds
        best = args[-1]
        with monkeypatch.context() as patch:  # the scalar envelope alone
            patch.setattr(_pairscan, "_envelope", lambda *args: np.float64(np.inf))
            scalar = power_bound(*args)
        if scalar < best:
            assert rows == [], (w, kind)
            closes += 1
        scans += 1
    assert scans == 420 and closes >= SCALAR_CLOSES, closes


def test_near_constant_powers_take_no_envelope(monkeypatch):
    # no envelope is below _LEAST, so where the corner times 1 + _LEAST is not below
    # best the one corner bound is +inf with no envelope taken: on powers within 1e-7
    # of constant every value is within a few u of 1, and the corner within 4 u of best
    power_bound = _pairscan._power_bound
    taken, bounds = [], []

    def bound(*args):
        with monkeypatch.context() as patch:
            for name in ("_power_envelope", "_envelope"):
                patch.setattr(_pairscan, name, lambda *args, name=name: taken.append(name))
            bounds.append(power_bound(*args))
        return bounds[-1]

    def checked(*args):
        result = max_pair_ratio(*args)
        assert result == brute_force_scan(*args)
        return result

    monkeypatch.setattr(_pairscan, "_power_bound", bound)
    monkeypatch.setattr(weights, "max_pair_ratio", checked)
    for nu in (1e-13, 1e-9, 1e-7, -1e-9, -1e-7):
        for kind in (FunctionalKind.aq(10.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(2.0)):
            sup_ratio_search(PowerWeight(1.0, 1.0, nu), kind, 9)
    assert taken == [] and bounds == [math.inf] * 15


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_row_0_from_the_origin_is_bit_identical(monkeypatch, mode):
    # row [0] is read from the origin, with no subtraction, where grid[0], p1[0] and
    # p2[0] are +0.0, as every search builds them, and from the generic leaf where one
    # of them is 5e-324 or -0.0 (x - -0.0 turns x = -0.0 into +0.0, and cap / +0.0 is
    # +inf where cap / -0.0 is -inf).  At e2 == 0 the origin path scores exp(-0.0)
    # where the generic one scores exp(+0.0), both 1: the constant weight's log prefix
    origins = []
    leaf = _pairscan._pair_values
    monkeypatch.setattr(_pairscan, "_pair_values", lambda *args: origins.append(args[7] is None) or leaf(*args))
    kinds = {0: [FunctionalKind.aq(10.0), FunctionalKind.rh_p(3.0)], 1: [FunctionalKind.a_inf()],
             2: [FunctionalKind.rh_inf()]}[mode]
    pure = [extremal_weight(2.0, 1.5, (1.0, 2.25), branch) for branch in ("plus", "minus")]
    cases = [search_args(w, kind, 7) for w in pure + PLATEAUS[:2] for kind in kinds if w.nu > 0.0 or mode < 2]
    grid = np.linspace(0.0, 1.0, 129)  # the constant weight: p1 the grid, p2 0, the cap 1
    lam = 0.0 if mode == 1 else -0.5
    cases.append((grid, grid.copy(), np.zeros_like(grid), 1.0, lam, np.ones_like(grid), mode, 128))
    for args in filter(None, cases):
        origins.clear()
        assert max_pair_ratio(*args) == brute_force_scan(*args)
        assert any(origins)
        for k in (0, 1, 2):
            heads = [[5e-324], [-0.0], [-0.0, -0.0]] if k else [[5e-324], [-0.0]]  # the grid must increase
            for head in heads:
                changed = list(args)
                changed[k] = changed[k].copy()
                changed[k][: len(head)] = head
                origins.clear()
                assert max_pair_ratio(*changed) == brute_force_scan(*changed), (k, head)
                assert not any(origins), (k, head)


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
    if depth == 10:  # and the scan is the brute-force scan bit for bit
        monkeypatch.setattr(weights, "max_pair_ratio", lambda *args: assert_bit_identical(*args) or max_pair_ratio(*args))
    for label, w, kind in phi_zero_searches():
        sup = sup_ratio_search(w, kind, depth)[0]
        with mp.workdps(50):
            phi = corner_phi(kind.name, mp.mpf(w.nu), mp.mpf(0), kind.exponent and mp.mpf(kind.exponent))
            assert float(abs(sup - phi) / phi) <= 3e-14, (label, sup, phi)
            # and so is the closed form on [0, 1]
            closed = functional_ratio(w, kind, 0.0, 1.0)
            assert float(abs(closed - phi) / phi) <= 3e-14, (label, closed, phi)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_scan_emits_no_float_warnings(mode):
    # inf and NaN are scored inside the scan, under its own errstate; the
    # short grids end in one-point blocks: [1] at n = 2, [2] at n = 3, [4]
    # at n = 5 and [32] at n = 33
    grids = (np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]), np.linspace(0.0, 1.0, 5),
             np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 40))
    cases = [(grid, grid, grid, grid.size - 1) for grid in (np.array([-1e308, 1e308]), *grids)]
    # constant, subnormal and overflowing prefixes on the closing path: the Box-Cox
    # prefix 0 of w = 1, whose increments the one corner bound divides by, and the
    # plain prefix 0, its plain average and prefix exponent's divisor; prefixes of
    # 1e-310 t and -1e-315 t; and of 1e308 t and 1e308 (2 t - 1), whose sums and
    # differences overflow
    even = np.linspace(0.0, 1.0, 65)
    cases += [(even, even, np.zeros_like(even), 64), (even, np.zeros_like(even), -even, 64),
              (even, 1e-310 * even, -1e-315 * even, 64), (even, 1e308 * even, 1e308 * (2.0 * even - 1.0), 64)]
    w = extremal_weight(2.0, 1.001, (1.0, 1.001**2), "plus")
    cases += [(*args[:3], args[7]) for args in (search_args(w, FunctionalKind.a_inf(), 1, grid) for grid in grids)]
    cases += [(*args[:3], args[7]) for args in exponential_mode_inputs().values()]
    # the corner path, row bounds and block pairs: at p = 1.01, delta = 2, nu is
    # q_star - 1 = 6.9e30 and the prefix underflows to 0 at all but the last point;
    # aq(1e14) and aq(1e17) take lam = -1e-14 and -1e-17 into log1p; a
    # breakpoint between the last two grid points leaves the plateau the one-point
    # column [n - 1]; breakpoints at g[1], g[2] and g[64] end the ramp in the
    # one-point row [1], [2] or [64], with no pair up to the ramp
    searches = [extremal_weight(1.01, 2.0, (1.0, 2.0**1.01), "plus"),
                extremal_weight(2.0, 2.0, (1.0, 4.0), "plus"), PowerWeight(1.0, 1.0 - 2.0**-10, 3.0)]
    searches += [PowerWeight(1.0, k / 512.0, 3.0) for k in (1, 2, 64)]
    kinds = {0: [FunctionalKind.aq(10.0), FunctionalKind.aq(1e14), FunctionalKind.aq(1e17), FunctionalKind.rh_p(2.0)],
             1: [FunctionalKind.a_inf()], 2: [FunctionalKind.rh_inf()]}[mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for grid, p1, p2, ramp in cases:
            max_pair_ratio(grid, p1, p2, 1.0, -1.0, p1, mode, ramp)
        for w in searches:
            for kind in kinds:
                sup_ratio_search(w, kind, 9)


# pairs scored (the summed sizes of the slices _best_pair scores) per
# search for the p = 2 plus extremal weight at (1, delta**2), for aq(10),
# a_inf and rh_inf, and the minus one for rh_p(3), out of 8,390,656 pairs
# at depth 12 and 134,225,920 at depth 14: each scores row [0] alone, n - 1
# pairs.  At delta = 2, rh_p(3) diverges at 0 and makes no scan.
VISITS = {
    (12, 1.0): (0, 0, 0, 0),
    (12, 1.001): (4096, 4096, 4096, 4096),
    (12, 2.0): (4096, 4096, 4096, 0),
    (14, 1.0): (0, 0, 0, 0),
    (14, 1.001): (16384, 16384, 16384, 16384),
    (14, 2.0): (16384, 16384, 16384, 0),
}


def visits_searches(delta):
    """(weight, kind) of each VISITS search."""
    plus, minus = (extremal_weight(2.0, delta, (1.0, delta**2), branch) for branch in ("plus", "minus"))
    return [(plus, FunctionalKind.aq(10.0)), (plus, FunctionalKind.a_inf()), (plus, FunctionalKind.rh_inf()),
            (minus, FunctionalKind.rh_p(3.0))]


def search_work(monkeypatch, searches, depth, name, size):
    """size(result, *args) summed over the calls to _pairscan.<name>, per search
    of the (weight, kind) pairs at the depth."""
    calls = [0]
    fn = getattr(_pairscan, name)

    def counted(*args):
        result = fn(*args)
        calls[0] += size(result, *args)
        return result

    monkeypatch.setattr(_pairscan, name, counted)
    work = []
    for w, kind in searches:
        calls[0] = 0
        sup_ratio_search(w, kind, depth)
        work.append(calls[0])
    return work


def pairs_scored(result, grid, p1, p2, cap, e1, e2, mode, rows, cols, mask):
    return (rows.stop - rows.start) * (cols.stop - cols.start)


@pytest.mark.parametrize("depth,delta", sorted(VISITS))
def test_scan_visits_no_more_block_pairs_than_recorded(monkeypatch, depth, delta):
    visits = search_work(monkeypatch, visits_searches(delta), depth, "_best_pair", pairs_scored)
    assert all(v <= most for v, most in zip(visits, VISITS[depth, delta], strict=True)), visits


# pairs scored by heavier searches at depth 12 (n = 4,097 points): at p = 2 and
# delta = 2, aq(1e10) and aq(1e14), and at p = 6 and delta = 1.001, aq(1e10),
# whose corner envelopes grew with q - 1 under the power form and now close every
# row; at p = 2 and delta - 1 = 1e-12, where margins are rounding,
# aq(10) and a_inf; and two plateau weights, whose row [0] past the ramp takes
# two-corner bounds (it was scored whole, 4,353 and 18,515 pairs).  The
# chord-and-slope bounds scored 1,294,784, 8,522,409, 1,707,320, 536,704,
# 944,775, 10,817 and 40,531, and the two-corner bounds on the power form
# 6,784, 589,440, 544,832, 536,704, 944,775, 959 and 18,129.
HEAVY = {
    "aq(1e10)": 4_096,
    "aq(1e14)": 4_096,
    "p6 aq(1e10)": 4_096,
    "delta-1=1e-12 aq(10)": 516_417,
    "delta-1=1e-12 a_inf": 516_929,
    "plateau a=0.1 a_inf": 959,
    "plateau a=0.7071 aq(10)": 18_129,
}


def heavy_searches():
    """(weight, kind) of each HEAVY search."""
    two = extremal_weight(2.0, 2.0, (1.0, 4.0), "plus")
    six = extremal_weight(6.0, 1.001, (1.0, 1.001**6), "plus")
    near = extremal_weight(2.0, 1.0 + 1e-12, (1.0, (1.0 + 1e-12) ** 2), "plus")
    return {
        "aq(1e10)": (two, FunctionalKind.aq(1e10)),
        "aq(1e14)": (two, FunctionalKind.aq(1e14)),
        "p6 aq(1e10)": (six, FunctionalKind.aq(1e10)),
        "delta-1=1e-12 aq(10)": (near, FunctionalKind.aq(10.0)),
        "delta-1=1e-12 a_inf": (near, FunctionalKind.a_inf()),
        "plateau a=0.1 a_inf": (PLATEAUS[1], FunctionalKind.a_inf()),
        "plateau a=0.7071 aq(10)": (PLATEAUS[2], FunctionalKind.aq(10.0)),
    }


@pytest.mark.parametrize("label", list(HEAVY))
def test_heavy_searches_score_no_more_pairs_than_recorded(monkeypatch, label):
    pairs, = search_work(monkeypatch, [heavy_searches()[label]], 12, "_best_pair", pairs_scored)
    assert pairs <= HEAVY[label], pairs


def test_searches_give_the_scan_its_one_input(monkeypatch):
    # the scan checks none of this itself: equal-length float64 arrays on a
    # strictly increasing grid, the ramp index of a, the plain-average prefix
    # first in every mode, and a nonnegative, nondecreasing cap in mode 2
    scans = []
    monkeypatch.setattr(weights, "max_pair_ratio", lambda *args: scans.append(args) or (1.0, 0, 1))
    kinds = set()
    for depth, delta in sorted(VISITS):
        extremal = [extremal_weight(2.0, delta, (1.0, delta**2), branch) for branch in ("plus", "minus")]
        for w in extremal + PLATEAUS:
            for kind in ALL_KINDS:
                if w.nu < 0.0 and kind.name == "rhinf":
                    continue
                scans.clear()
                sup_ratio_search(w, kind, depth)
                for grid, p1, p2, e1, e2, cap, mode, ramp in scans:
                    n = grid.size
                    assert all(x.dtype == np.float64 and x.shape == (n,) for x in (grid, p1, p2, cap))
                    assert np.all(np.diff(grid) > 0.0) and grid[0] == 0.0 and grid[-1] == 1.0
                    assert isinstance(ramp, int) and 1 <= ramp < n and grid[ramp] == w.a
                    assert np.array_equal(p1, weights._prefix_power(weights._grid_parts(grid, w.a), w.a, w.nu, 1.0))
                    assert np.all(np.diff(p1) >= 0.0)
                    assert mode == {"aq": 0, "rhp": 0, "ainf": 1, "rhinf": 2}[kind.name]
                    if mode == 2:
                        assert np.all(cap >= 0.0) and np.all(np.diff(cap) >= 0.0)
                    else:
                        # e2 is lam, e1 says whether p2 is the Box-Cox prefix (lam nu <= 0)
                        # or that of w**lam; each integrates a function of one sign
                        assert e2 == weights._box_cox_exponent(kind) and e1 == float(e2 * w.nu <= 0.0)
                        steps = np.diff(p2)
                        assert np.all(steps >= 0.0) or np.all(steps <= 0.0)
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


# block pairs given a two-corner bound per VISITS search: none, as these
# weights are pure powers on all of [0, 1], so after row [0] the row corner
# bounds close every row; bounding all pairs of the 71 to 264 blocks so would
# take 5,041 to 69,696 a search
GENERIC = {
    (12, 1.0): (0, 0, 0, 0),
    (12, 1.001): (0, 0, 0, 0),
    (12, 2.0): (0, 0, 0, 0),
    (14, 1.0): (0, 0, 0, 0),
    (14, 1.001): (0, 0, 0, 0),
    (14, 2.0): (0, 0, 0, 0),
}


@pytest.mark.parametrize("depth,delta", sorted(GENERIC))
def test_scan_bounds_few_block_pairs_generically(monkeypatch, depth, delta):
    counts = search_work(monkeypatch, visits_searches(delta), depth, "_block_bounds", lambda bound, *args: bound.size)
    assert all(c <= most for c, most in zip(counts, GENERIC[depth, delta], strict=True)), counts


# _corner_bounds calls per VISITS search: none, as each weight is a pure power and
# the one corner bound closes its scan after row [0] (at delta = 1 the weight is
# constant, with no scan)
ROW_CALLS = {
    (12, 1.0): (0, 0, 0, 0),
    (12, 1.001): (0, 0, 0, 0),
    (12, 2.0): (0, 0, 0, 0),
    (14, 1.0): (0, 0, 0, 0),
    (14, 1.001): (0, 0, 0, 0),
    (14, 2.0): (0, 0, 0, 0),
}


@pytest.mark.parametrize("depth,delta", sorted(ROW_CALLS))
def test_pure_power_scans_make_no_row_call(monkeypatch, depth, delta):
    calls = search_work(monkeypatch, visits_searches(delta), depth, "_corner_bounds", lambda bound, *args: 1)
    assert all(c <= most for c, most in zip(calls, ROW_CALLS[depth, delta], strict=True)), calls


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
    # NumPy reports its buffers to tracemalloc, so the peak repeats exactly: 0.44
    # MiB at either delta (0.83 with the caches emptied before the traced search,
    # 0.75 when each search built its grid arrays, 0.82 with a copy of the prefixes
    # for the chord-and-slope bounds), against 4.4 MiB with an array over all ramp
    # block pairs and 7.6 MiB when the chord-and-slope bounds covered every one
    peak = extremal_peak(delta, 14)
    assert peak < 1.5 * 2**20, peak


def test_search_peak_allocation_grows_linearly():
    # 4x the points from depth 14 to 16: linear memory gives at most about 4x
    # the peak (2.7x here, 4.0x when each search built its grid arrays), an
    # array over all block pairs about 16x
    ratio = extremal_peak(2.0, 16) / extremal_peak(2.0, 14)
    assert ratio <= 5.0, ratio


def test_plateau_search_peak_allocation():
    # on a plateau every row stays open and keeps its block pairs' bounds, 8
    # bytes each: 1.59 MiB at depth 14 (2.09 with the caches emptied before the
    # traced search, 1.72 when each search built its grid arrays), against 3.81
    # MiB with the chord-and-slope bounds and their per-block slopes
    peak = search_peak(PowerWeight(1.0, 0.1, 3.0), FunctionalKind.a_inf(), 14)
    assert peak < 2.0 * 2**20, peak


def cached_arrays(entry):
    """The arrays of a cache entry, its nested tuples flattened."""
    if isinstance(entry, tuple):
        return [x for part in entry for x in cached_arrays(part)]
    return [entry] if isinstance(entry, np.ndarray) else []


@pytest.mark.parametrize("depth", [5, 9, 12, 14])
def test_warm_caches_change_no_search(depth):
    # every kind on the p = 2 extremal weights of the upper curve and the p = inf
    # one, the PLATEAUS and the extremal weights of an interior point: a search
    # with both caches empty, and again from them, gives the same repr
    upper = [extremal_weight(2.0, 1.001, (1.0, 1.001**2), branch) for branch in ("plus", "minus")]
    upper.append(extremal_weight(math.inf, 1.001, (1.0, 1.001), "plus"))
    interior = [extremal_weight(2.5, 1.6, (1.0, 1.5), branch) for branch in ("plus", "minus")]
    searched = 0
    for w in upper + PLATEAUS + interior:
        for kind in ALL_KINDS:
            if w.nu < 0.0 and kind.name == "rhinf":
                continue
            weights._dyadic_parts.cache_clear()
            _pairscan._layout.cache_clear()
            cold = repr(sup_ratio_search(w, kind, depth))
            if not weights._dyadic_parts.cache_info().currsize:
                continue  # rh_p(3) diverges at 0 where 3 nu <= -1, with no scan
            hits = weights._dyadic_parts.cache_info().hits, _pairscan._layout.cache_info().hits
            assert repr(sup_ratio_search(w, kind, depth)) == cold, (w, kind)
            assert (weights._dyadic_parts.cache_info().hits, _pairscan._layout.cache_info().hits) == (
                hits[0] + 1, hits[1] + 1)
            parts = weights._dyadic_parts(depth, w.a)
            layout = _pairscan._layout(parts[0].size, parts[1], _pairscan._SLICE)
            entries = cached_arrays(parts) + cached_arrays(layout)
            assert len(entries) == 14
            for x in entries:
                with pytest.raises(ValueError):
                    x[...] = 0.0
            searched += 1
    assert searched == 31


@pytest.mark.parametrize("name,fn", SCANS)
def test_tie_resolution_is_lexicographic(name, fn):
    # a constant ratio field must report the first pair
    grid = np.linspace(0.0, 1.0, 9)
    p1 = grid.copy()
    p2 = np.zeros_like(grid)  # the Box-Cox prefix of w = 1
    cap = np.ones_like(grid)
    best, i, j = fn(grid, p1, p2, 1.0, -0.5, cap, 0, 8)
    assert best == 1.0
    assert (i, j) == (0, 1)


def leaf_edge_inputs(mode, e1):
    """Cases (the scan's arguments) on the power_weight_inputs weight over the
    130 points of scan_grids(130), whose blocks end in [32, 63], [64, 91] (at
    BREAK), [92, 127] and a short [128, 129]: slices off the diagonal holding
    NaN, +inf and -inf."""
    grid = scan_grids(130)["injected breakpoint"]
    cases = {}
    # the maximum, +inf, at (65, 128), in the slice of blocks [64, 91] x [128, 129]
    # after the NaN of row 64; for rh_p from p2, whose exp(G) the scan divides by
    # p1's average
    args = power_weight_inputs(grid, mode, e1)
    _, p1, p2, _, _, cap, _, _ = args
    p1[:65] = np.nan
    if mode == 2:
        cap[128] = np.inf
    elif mode == 0 and e1 != 1.0:
        p2[128] = np.inf
    else:
        p1[128] = np.inf
    cases["NaN before the maximum"] = args
    # -inf in column 128 and +inf in column 129; for rh_p from
    # d1 = -0.0 - 0.0 = -0.0 at (0, 128), as exp(G) / -0.0 is -inf
    args = power_weight_inputs(grid, mode, e1)
    _, p1, p2, _, _, cap, _, _ = args
    if mode == 2:
        cap[128], cap[129] = -np.inf, np.inf
    elif mode == 0 and e1 != 1.0:
        p2[129], p1[128] = np.inf, -0.0
    else:
        p1[128], p1[129] = -np.inf, np.inf
    cases["+inf and -inf"] = args
    # columns 128 and 129 score NaN, or NaN and -inf, for every row before them
    args = power_weight_inputs(grid, mode, e1)
    _, p1, p2, _, _, cap, _, _ = args
    p1[128] = np.nan
    p1[129] = np.nan if mode == 0 else -np.inf
    if mode == 2:
        cap[129] = -np.inf
    cases["NaN or -inf only"] = args
    return cases


@pytest.mark.parametrize("e1", [1.0, 0.7])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_leaf_skips_are_bit_identical_at_nan_inf_and_repeated_points(monkeypatch, mode, e1):
    slices = []
    leaf = _pairscan._best_pair

    def recorded(*args):
        slices.append(args[7:9])
        return leaf(*args)

    monkeypatch.setattr(_pairscan, "_best_pair", recorded)
    # one column block a slice in the rows of more than 16 points
    monkeypatch.setattr(_pairscan, "_SLICE", 32 * _pairscan._BLOCK)
    for name, args in leaf_edge_inputs(mode, e1).items():
        slices.clear()
        expected = brute_force_scan(*args)
        assert max_pair_ratio(*args) == expected, name
        # the case reaches a slice off the diagonal of the kind it is named for
        off = {(rows.start, cols.start): brute_values(*args[:7], rows, cols)
               for rows, cols in slices if cols.start >= rows.stop}
        assert (64, 128) in off, name  # the short last block
        if name == "NaN before the maximum":
            _, i, j = expected
            vals, _ = off[64, 128]
            assert np.isnan(vals.flat[: (i - 64) * vals.shape[1] + j - 128]).any()
        elif name == "+inf and -inf":
            assert any((vals == np.inf).any() for vals, _ in off.values())
            assert any((vals == -np.inf).any() for vals, _ in off.values())
        else:
            assert any((np.isnan(vals) | (vals == -np.inf)).all() for vals, _ in off.values())
            assert np.isfinite(expected[0])


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


@pytest.mark.parametrize("e1", [1.0, 0.7])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_sliced_rows_are_bit_identical_to_brute_force(monkeypatch, mode, e1):
    # 128 pairs a slice: two column blocks in the row [0], one in every
    # other row, so column 16 starts a slice in every row it is scored in
    monkeypatch.setattr(_pairscan, "_SLICE", 2 * _pairscan._BLOCK)
    slices = []
    leaf = _pairscan._best_pair

    def recorded(*args):
        slices.append(args[7:9])
        return leaf(*args)

    monkeypatch.setattr(_pairscan, "_best_pair", recorded)
    for n in (2, 3, 5, 63, 64, 65, 66, 130):
        for name, grid in scan_grids(n).items():
            grid, p1, *rest = power_weight_inputs(grid, mode, e1)
            hit = 16 if n > 16 else n - 1
            for value in (None, np.nan, np.inf, -np.inf):
                q1 = p1.copy()
                if value is not None:
                    q1[hit] = value
                args = (grid, q1, *rest)
                slices.clear()
                assert max_pair_ratio(*args) == brute_force_scan(*args), (n, name, value)
                if n > 16 and value is not None:
                    # the hit starts a slice, and some row spans several
                    assert any(cols.start == hit for _, cols in slices), (n, name, value)
                    starts = [rows.start for rows, _ in slices]
                    assert max(starts.count(i) for i in starts) > 1, (n, name, value)

"""The block-pruned pair scan against brute-force references."""

import math
import warnings

import numpy as np
import pytest

from sharpweights import FunctionalKind, PowerWeight, extremal_weight, sup_ratio_search
from sharpweights import _pairscan, weights
from sharpweights._pairscan import _LOWEST, max_pair_ratio
from sharpweights.weights import _prefix_log, _prefix_power

_REF_ROWS = 256


def brute_values(grid, p1, p2, e1, e2, cap, mode, rows, cols=slice(None)):
    """The mode's ratio on rows x cols, and the interval lengths.

    Modes: 0 -> (d1/L)**e1 * (d2/L)**e2, 1 -> (d1/L) * exp(-(d2/L)),
    2 -> cap[j] / (d1/L).
    """
    length = grid[None, cols] - grid[rows, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a1 = (p1[None, cols] - p1[rows, None]) / length
        if mode == 0:
            vals = a1**e1 * ((p2[None, cols] - p2[rows, None]) / length) ** e2
        elif mode == 1:
            vals = a1 * np.exp(-(p2[None, cols] - p2[rows, None]) / length)
        else:
            vals = cap[None, cols] / a1
    return vals, length


def brute_scores(vals, length):
    """Empty intervals and -inf score the lowest float, NaN scores -inf."""
    vals[length <= 0.0] = -np.inf
    return np.nan_to_num(vals, copy=False, nan=-np.inf, posinf=np.inf)


def brute_force_scan(grid, p1, p2, e1, e2, cap, mode):
    """Every pair, _REF_ROWS rows at a time: the bit-identity reference.

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
            if mode == 0:
                a2 = (p2[j] - p2[i]) / length
                v = a1**e1 * a2**e2
            elif mode == 1:
                a2 = (p2[j] - p2[i]) / length
                v = a1 * math.exp(-a2)
            else:
                v = cap[j] / a1
            if math.isnan(v):
                continue
            if v > best:
                best, bi, bj = v, i, j
    return best, bi, bj


# the pruned scan, and the brute-force reference it must reproduce
SCANS = [("numpy", max_pair_ratio), ("brute", brute_force_scan)]


def random_inputs(rng, n):
    grid = np.sort(rng.random(n))
    grid[0], grid[-1] = 0.0, 1.0
    p1 = np.cumsum(rng.uniform(0.01, 1.0, n))
    p2 = np.cumsum(rng.uniform(0.01, 1.0, n))
    cap = rng.uniform(0.1, 2.0, n)
    return grid, p1, p2, cap


def assert_bit_identical(*args):
    assert max_pair_ratio(*args) == brute_force_scan(*args)


@pytest.mark.parametrize("name,fn", SCANS)
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_backend_matches_reference(name, fn, mode):
    rng = np.random.default_rng(20240814 + mode)
    for trial in range(5):
        grid, p1, p2, cap = random_inputs(rng, 48)
        e1 = float(rng.uniform(0.2, 2.0))
        e2 = float(rng.uniform(-1.5, 1.5))
        expected = reference_scan(grid, p1, p2, e1, e2, cap, mode)
        got = fn(grid, p1, p2, e1, e2, cap, mode)
        assert got[1] == expected[1] and got[2] == expected[2]
        assert got[0] == pytest.approx(expected[0], rel=1e-13)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_pruned_scan_is_bit_identical_on_random_prefixes(mode):
    rng = np.random.default_rng(31 + mode)
    for e2 in (-1.0, -0.7, 0.4, 1.0, 2.5):
        for n in (65, 300):
            grid, p1, p2, cap = random_inputs(rng, n)
            assert_bit_identical(grid, p1, p2, float(rng.uniform(0.2, 2.0)), e2, cap, mode)


@pytest.mark.parametrize("nu_sign", ["positive", "negative"])
@pytest.mark.parametrize("inject", [True, False])
def test_pruned_scan_is_bit_identical_on_extremal_weights(monkeypatch, nu_sign, inject):
    scans = []

    def checked(*args):
        expected = brute_force_scan(*args)
        assert max_pair_ratio(*args) == expected
        scans.append(args[6])
        return expected

    monkeypatch.setattr(weights, "max_pair_ratio", checked)
    # an interior point, so the weight has both a ramp and a plateau;
    # q = 5 lies above q_star and t = 2 below t_star at p = 2.5, delta = 1.6
    branch = "plus" if nu_sign == "positive" else "minus"
    w = extremal_weight(2.5, 1.6, (1.0, 1.5), branch)
    assert (w.nu > 0.0) == (nu_sign == "positive") and w.a < 1.0
    kinds = [FunctionalKind.aq(5.0), FunctionalKind.a_inf(), FunctionalKind.rh_p(2.0)]
    if w.nu >= 0.0:
        kinds.append(FunctionalKind.rh_inf())
    for kind in kinds:
        sup_ratio_search(w, kind, 9, inject_candidates=inject)
    assert len(scans) == len(kinds)


def test_exponential_scan_with_a_negative_log_prefix():
    # the log prefix of a ramp weight dips below zero before it rises
    w = extremal_weight(2.0, 2.0, (1.0, 4.0), "plus")
    grid = np.arange(513, dtype=np.float64) / 512.0
    p1 = _prefix_power(grid, w.a, w.nu, 1.0)
    p2 = _prefix_log(grid, w.a, w.nu)
    assert p2.min() < 0.0
    assert_bit_identical(grid, p1, p2, 0.0, 0.0, p1, 1)
    walk = np.cumsum(np.random.default_rng(5).standard_normal(grid.size))
    assert walk.min() < 0.0
    assert_bit_identical(grid, p1, walk, 0.0, 0.0, p1, 1)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_constant_weight_ties_resolve_to_the_first_pair(mode):
    # every pair of every block ties at exactly 1, and the first
    # nonempty pair is the first j past a repeated first point; one
    # repeated point has no nonempty pair at all
    even = np.arange(301, dtype=np.float64) / 300.0
    repeated = np.concatenate([[0.0, 0.0], even])
    flat = np.full(130, 0.5)
    for grid, expected in ((even, (1.0, 0, 1)), (repeated, (1.0, 0, 3)), (flat, (_LOWEST, 0, 0))):
        p2 = np.zeros_like(grid) if mode == 1 else grid
        args = (grid, grid, p2, 1.0, 1.0, np.ones_like(grid), mode)
        assert max_pair_ratio(*args) == expected
        assert brute_force_scan(*args) == expected


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
        for a, inject in ((1.0, True), (0.3, True), (2.0**-9, True), (2.0**-9, False)):
            got = sup_ratio_search(PowerWeight(3.0, a, 0.0), kind, depth, inject_candidates=inject)
            grid = np.arange(2**depth + 1, dtype=np.float64) / 2**depth
            if inject:
                grid = np.unique(np.concatenate([grid, [0.0, a, 1.0]]))
            # every prefix of w**theta is the grid, the log prefix is 0, the cap 1
            p2 = np.zeros_like(grid) if mode == 1 else grid
            best, i, j = brute_force_scan(grid, grid, p2, 2.0, -1.0, np.ones_like(grid), mode)
            first = min(a, 2.0**-depth) if inject else 2.0**-depth
            assert got == (best, (grid[i], grid[j])) == (1.0, (0.0, first))
        with pytest.raises(ScanCalled):
            sup_ratio_search(PowerWeight(3.0, 0.3, 0.5), kind, depth)


def test_constant_path_needs_a_finite_span():
    # 1e308 - (-1e308) overflows, and inf / inf is NaN, not 1
    grid = np.array([-1e308, 1e308])
    args = (grid, grid, grid, 1.0, 1.0, np.ones(2), 0)
    with np.errstate(over="ignore"):
        assert max_pair_ratio(*args) == brute_force_scan(*args) == (_LOWEST, 0, 0)


def exponential_mode_inputs():
    """(grid, p1, p2) cases for the soundness of the exponential bounds."""
    grid = np.arange(1025, dtype=np.float64) / 1024.0
    cases = {}
    for excess in (1e-12, 1e-6, 1e-3, 1.0):
        delta = 1.0 + excess
        w = extremal_weight(2.0, delta, (1.0, delta**2), "plus")
        cases[f"extremal delta-1={excess}"] = (grid, _prefix_power(grid, w.a, w.nu, 1.0), _prefix_log(grid, w.a, w.nu))
    # nu = 50 puts the average of log w near the origin at about -360
    for nu in (-0.9, 12.0, 50.0):
        w = PowerWeight(1.0, 0.5, nu)
        cases[f"ramp nu={nu}"] = (grid, _prefix_power(grid, w.a, w.nu, 1.0), _prefix_log(grid, w.a, w.nu))
    rng = np.random.default_rng(11)
    p1 = _prefix_power(grid, 0.5, 2.0, 1.0)
    walk = np.cumsum(rng.standard_normal(grid.size))
    cases["random walk"] = (grid, p1, walk)
    cases["small random walk"] = (grid, p1, 1e-3 * walk)
    cases["random walks, averages of both signs"] = (grid, 1e-2 * walk[::-1], 1e-3 * walk)
    cases["negative averages"] = (grid, -p1, 1e-3 * walk)
    # repeated grid points, one of them under a jump of the prefix
    repeats = np.sort(np.concatenate([grid, grid[rng.integers(1, grid.size - 1, 30)]]))
    w = extremal_weight(2.0, 1.001, (1.0, 1.001**2), "plus")
    p1 = _prefix_power(repeats, w.a, w.nu, 1.0)
    p2 = _prefix_log(repeats, w.a, w.nu)
    cases["repeated points"] = (repeats, p1, p2)
    jump = int(np.flatnonzero(np.diff(repeats) == 0.0)[5]) + 1
    p1 = p1.copy()
    p1[jump:] += 0.5
    cases["repeated point with a prefix jump"] = (repeats, p1, p2)
    return cases


def block_maxima(grid, p1, p2):
    """The largest computed pair value of each block pair, [I, J]."""
    n = grid.size
    vals = brute_scores(*brute_values(grid, p1, p2, 0.0, 0.0, p1, 1, slice(0, n)))
    nb = -(-n // _pairscan._BLOCK)
    padded = np.full((nb * _pairscan._BLOCK, nb * _pairscan._BLOCK), -np.inf)
    padded[:n, :n] = vals
    return padded.reshape(nb, _pairscan._BLOCK, nb, _pairscan._BLOCK).max(axis=(1, 3))


def specht_term(grid, p1, p2, nb):
    """_specht_bound on the cell slopes of the two prefixes."""
    length = np.diff(grid)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _pairscan._specht_bound(np.diff(p1) / length, np.diff(p2) / length, nb)


def specht_reference(grid, p1, p2, lo, hi):
    """The Specht term over cells lo..hi-1, widened as _specht_bound
    widens it, one cell at a time."""
    def widen(x):
        return x + _pairscan._SLACK * abs(x) + _pairscan._TINY

    length = np.diff(grid)[lo:hi]
    s2 = np.diff(p2)[lo:hi] / length
    rho = widen(max(np.diff(p1)[lo:hi] / length * np.exp(-s2)))
    top, bottom = widen(max(s2)), widen(max(-s2))
    if top > _pairscan._EXP_SAFE:
        rho = np.inf
    ratio = np.expm1(top + bottom) / (top + bottom)
    return max(rho * (ratio * np.exp(1.0 / ratio - 1.0)), rho)


def test_specht_term_matches_its_cellwise_definition():
    rng = np.random.default_rng(12)
    for n in (2, 64, 65, 66, 300):
        grid, p1, _, _ = random_inputs(rng, n)
        walk = np.cumsum(rng.normal(0.0, 0.01, n))
        first = np.arange(0, n, _pairscan._BLOCK)
        last = np.minimum(first + _pairscan._BLOCK - 1, n - 1)
        # the tilted walk passes _EXP_SAFE in some cells
        for sign, tilt in ((1.0, 0.0), (-1.0, 0.0), (1.0, 720.0)):
            p2 = tilt * grid + walk
            term = specht_term(grid, sign * p1, p2, first.size)
            for i, j in zip(*np.triu_indices(first.size)):
                # pairs of block pair (i, j) span cells first[i]..last[j]-1
                if last[j] > first[i]:
                    expected = specht_reference(grid, sign * p1, p2, first[i], last[j])
                    assert term[i, j] == expected, (n, i, j)


def test_exponential_bounds_hold_every_pair_value(monkeypatch):
    binds = {}
    for name, (grid, p1, p2) in exponential_mode_inputs().items():
        n = grid.size
        first = np.arange(0, n, _pairscan._BLOCK)
        last = np.minimum(first + _pairscan._BLOCK - 1, n - 1)
        upper = np.triu_indices(first.size)
        best = block_maxima(grid, p1, p2)[upper]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = _pairscan._block_bounds(grid, p1, p2, p1, 0.0, 0.0, 1, first, last)[upper]
            assert np.all(bound >= best), name
            # the Specht term alone, with the same final widening, holds too
            term = specht_term(grid, p1, p2, first.size)[upper]
            term = term + _pairscan._SLACK * np.abs(term) + _pairscan._TINY
            assert np.all((term >= best) | np.isnan(term)), name
            with monkeypatch.context() as m:
                m.setattr(_pairscan, "_specht_bound", lambda *args: np.inf)
                plain = _pairscan._block_bounds(grid, p1, p2, p1, 0.0, 0.0, 1, first, last)[upper]
        binds[name] = np.count_nonzero(bound < plain)
        if "jump" in name:
            # the pairs across the jump are not means of cell slopes
            assert not np.isfinite(term).all() and np.isinf(bound).any()
    # where the weight barely varies, the Specht term is the tighter one
    assert binds["extremal delta-1=0.001"] > 0 and binds["extremal delta-1=1e-06"] > 0


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_scan_emits_no_float_warnings(mode):
    # inf and NaN are scored inside the scan, under its own errstate
    even = np.arange(301, dtype=np.float64) / 300.0
    grids = (np.concatenate([[0.0, 0.0], even]), np.full(130, 0.5), np.array([-1e308, 1e308]))
    cases = [(grid, grid, grid) for grid in grids]
    cases += exponential_mode_inputs().values()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for grid, p1, p2 in cases:
            max_pair_ratio(grid, p1, p2, 1.0, -1.0, p1, mode)


# leaves (_best_pair calls) per search for the p = 2 plus extremal weight at
# (1, delta**2), for aq(10), a_inf and rh_inf, out of 2145 block pairs
# at depth 12 and 33153 at depth 14.  Tighter bounds may lower them.
VISITS = {
    (12, 1.0): (0, 0, 0),
    (12, 1.001): (1706, 330, 66),
    (12, 2.0): (66, 68, 362),
    (14, 1.0): (0, 0, 0),
    (14, 1.001): (4870, 3359, 258),
    (14, 2.0): (258, 260, 1706),
}


@pytest.mark.parametrize("depth,delta", sorted(VISITS))
def test_scan_visits_no_more_block_pairs_than_recorded(monkeypatch, depth, delta):
    calls = [0]
    leaf = _pairscan._best_pair

    def counted(*args):
        calls[0] += 1
        return leaf(*args)

    monkeypatch.setattr(_pairscan, "_best_pair", counted)
    w = extremal_weight(2.0, delta, (1.0, delta**2), "plus")
    visits = []
    for kind in (FunctionalKind.aq(10.0), FunctionalKind.a_inf(), FunctionalKind.rh_inf()):
        calls[0] = 0
        sup_ratio_search(w, kind, depth)
        visits.append(calls[0])
    assert all(v <= most for v, most in zip(visits, VISITS[depth, delta])), visits


@pytest.mark.parametrize("name,fn", SCANS)
def test_tie_resolution_is_lexicographic(name, fn):
    # a constant ratio field must report the first pair
    grid = np.linspace(0.0, 1.0, 9)
    p1 = grid.copy()
    p2 = grid.copy()
    cap = np.ones_like(grid)
    best, i, j = fn(grid, p1, p2, 1.0, 1.0, cap, 0)
    assert best == 1.0
    assert (i, j) == (0, 1)


@pytest.mark.parametrize("name,fn", SCANS)
def test_rejects_degenerate_input(name, fn):
    one = np.array([0.5])
    with pytest.raises(ValueError):
        fn(one, one, one, 1.0, 1.0, one, 0)


def test_duplicate_grid_points_are_skipped():
    # repeated endpoints (injected candidates) must never divide by zero
    grid = np.array([0.0, 0.25, 0.25, 1.0])
    p1 = np.array([0.0, 1.0, 1.0, 4.0])
    p2 = p1.copy()
    cap = np.ones_like(grid)
    for _, fn in SCANS:
        best, i, j = fn(grid, p1, p2, 1.0, 1.0, cap, 0)
        assert math.isfinite(best)
        assert grid[j] > grid[i]


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_duplicate_grid_points_in_every_block(mode):
    rng = np.random.default_rng(70 + mode)
    grid, p1, p2, cap = random_inputs(rng, 300)
    grid = np.sort(np.concatenate([grid, grid[rng.integers(0, 300, 40)]]))
    p1 = np.cumsum(rng.uniform(0.01, 1.0, grid.size))
    p2 = np.cumsum(rng.uniform(0.01, 1.0, grid.size))
    cap = rng.uniform(0.1, 2.0, grid.size)
    assert_bit_identical(grid, p1, p2, 1.0, -1.0, cap, mode)
    # a grid of one repeated point has no interval at all
    flat = np.full(130, 0.5)
    assert_bit_identical(flat, p1[:130], p2[:130], 1.0, 1.0, cap[:130], mode)


def leaf_edge_inputs(mode):
    """Cases (grid, p1, p2, cap, e2) of 150 points, blocks of 64, 64 and a
    short 22: off-diagonal block pairs holding NaN, +inf, -inf and empty
    intervals."""
    rng = np.random.default_rng(90 + mode)
    grid = np.arange(150, dtype=np.float64) / 149.0

    def base():
        p1, p2 = np.cumsum(rng.uniform(0.01, 1.0, (2, 150)), axis=1)
        return p1, 1e-3 * p2, rng.uniform(0.1, 2.0, 150)

    cases = {}
    # the maximum at (127, 128), in block pair (1, 2) after its NaN column 140
    p1, p2, cap = base()
    if mode == 2:
        p1[128:] += p1[127] + 1e-3 - p1[128]
        cap[128] = 1e3
    else:
        p1[128:] += 1e4
    p1[140] = np.nan
    cases["NaN before the maximum"] = (grid, p1, p2, cap, -1.0)
    # +inf in column 130 and -inf in column 135; in mode 0 from
    # d2 = -0.0 - 0.0 = -0.0 at (10, 135), as (-0.0)**-1 is -inf
    p1, p2, cap = base()
    if mode == 2:
        cap[130], cap[135] = np.inf, -np.inf
    else:
        p1[130] = np.inf
    if mode == 1:
        p1[135] = -np.inf
    p2[10], p2[135] = 0.0, -0.0
    cases["+inf and -inf"] = (grid, p1, p2, cap, -1.0)
    # columns 128 on score NaN, or NaN and -inf, for every row before them
    p1, p2, cap = base()
    p1[128::2] = np.nan
    p1[129::2] = np.nan if mode == 0 else -np.inf
    cap[129::2] = -np.inf
    cases["NaN or -inf only"] = (grid, p1, p2, cap, -1.0)
    # (63, 64) and (99, 100) are empty; unmasked they score +inf in mode 0
    # at e2 = 0.5 and in mode 1 where p2 falls there, and -0.0 in mode 2,
    # above every other pair where the caps are below 0
    p1, p2, cap = base()
    repeated = grid.copy()
    repeated[64], repeated[100] = repeated[63], repeated[99]
    if mode == 1:
        p2[64], p2[100] = p2[63] - 1e-3, p2[99] - 1e-3
    cases["repeated points"] = (repeated, p1, p2, -cap, 0.5)
    return cases


@pytest.mark.parametrize("e1", [1.0, 0.7])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_leaf_skips_are_bit_identical_at_nan_inf_and_repeated_points(monkeypatch, mode, e1):
    leaves = []
    leaf = _pairscan._best_pair

    def recorded(*args):
        leaves.append(args[7:9])
        return leaf(*args)

    monkeypatch.setattr(_pairscan, "_best_pair", recorded)
    block = _pairscan._BLOCK
    for name, (grid, p1, p2, cap, e2) in leaf_edge_inputs(mode).items():
        args = (grid, p1, p2, e1, e2, cap, mode)
        leaves.clear()
        expected = brute_force_scan(*args)
        assert max_pair_ratio(*args) == expected, name
        # the case reaches an off-diagonal leaf of the kind it is named for
        off = {(i0, j0): brute_values(*args, slice(i0, i0 + block), slice(j0, j0 + block))
               for i0, j0 in leaves if i0 != j0}
        assert any(j0 == 128 for _, j0 in off), name  # the short last block
        if name == "NaN before the maximum":
            _, i, j = expected
            vals, _ = off[i - i % block, j - j % block]
            assert np.isnan(vals.flat[: (i % block) * vals.shape[1] + j % block]).any()
        elif name == "+inf and -inf":
            assert any((vals == np.inf).any() for vals, _ in off.values())
            assert any((vals == -np.inf).any() for vals, _ in off.values())
        elif name == "NaN or -inf only":
            assert any((np.isnan(vals) | (vals == -np.inf)).all() for vals, _ in off.values())
            assert np.isfinite(expected[0])
        else:
            assert any((vals[length <= 0.0] > expected[0]).any() for vals, length in off.values())


def test_rejects_mismatched_prefixes():
    grid = np.linspace(0.0, 1.0, 5)
    short = np.zeros(4)
    cap = np.ones(5)
    with pytest.raises(ValueError, match="match the grid length"):
        max_pair_ratio(grid, short, grid, 1.0, 1.0, cap, 0)


def test_rejects_a_decreasing_grid():
    grid = np.array([0.0, 0.5, 0.25, 1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        max_pair_ratio(grid, grid, grid, 1.0, 1.0, grid, 0)

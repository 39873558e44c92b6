"""Exact block-pruned scan for the largest pairwise ratio of interval averages.

Every functional of the supremum search is a closed-form ratio of the
averages (P[j] - P[i]) / (g[j] - g[i]) of prefix integrals P over a
strictly increasing grid g: with d1, d2 and L the increments of p1, p2 and g
from i to j > i, mode 0 is (d1/L)**e1 * (d2/L)**e2, mode 1 (d1/L) *
exp(-(d2/L)), mode 2 cap[j] / (d1/L).  Each prefix integrates a monotone
function, so the averages over a block pair lie between those at its two
extreme corners (see _SLACK).  The scan scores the row [0] of blocks graded
toward the origin whole up to the ramp, and past it the slices whose two
extreme corners may reach the best value; where the weight is a power on all
of [0, 1] it bounds each other row by one corner value (below), and it bounds
the block pairs of each row still open by their corner value up to the ramp
and by their two extreme corners.  It scores rows by decreasing bound, bit
for bit.  The index arrays that depend on (n, ramp) alone are built once per
key (_layout).

The corner bound.  Where the prefixes are those of a power t**nu up to
a = g[ramp], a functional on [alpha, beta] in [0, a] is Phi(alpha/beta),
Phi(r) its value on [r, 1], and Phi is nonincreasing, so a block pair
[I, J] with last[J] <= ramp peaks at its corner (first[I], last[J]).
With U uniform on [r, 1], Y = nu log U and M_s = log(E exp(s Y)) / s
(M_0 = E Y, M_inf = max Y), log Phi is M_s - M_1 for RH_s (s > 1 or
inf) and M_1 - M_s for A_q (s = -1/(q - 1)) and A_inf (s = 0).  With
U = r + (1 - r) V, V uniform on [0, 1], dY/dr = h(Y) = nu (1/U - 1) /
(1 - r) falls as Y grows, so dM_s/dr, the mean of h(Y) under the law
tilted by exp(s Y), falls as s grows (its s-derivative is the tilted
covariance of Y and h(Y), <= 0 by Chebyshev): d log Phi/dr <= 0.
"""

from __future__ import annotations

import functools

import numpy as np

_BLOCK = 64
_SLICE = 8192  # pairs: smaller slices pay per-call overhead, larger ones spill L2
_CHUNK = 8192  # block pairs a bound call, at about 200 bytes each: larger calls spill the cache

# Outward rounding, as a bound and the pair values it dominates round apart,
# with u = 2**-53 and 4 ulp for each pow, exp, log:
# - A power prefix (a/e)*(g/a)**e errs by eps = (|e| + 12) u, as the rounding
#   of g/a is raised to e (e = g[ramp]/P[ramp] to a few ulp), a log prefix by
#   16 u, the cap (g/a)**nu by (|nu| + 12) u.  So a computed average
#   (P[j] - P[i]) / L is within R = eps (|P[i]| + |P[j]|) / L + 3 u |avg| of
#   the exact one on the float grid, to first order (_rounding, which adds
#   _TINY / L for subnormal intermediates, +inf where eps passes _ENVELOPE).
# - The two-corner bound.  Each integrand f, w**theta, log w or the cap, is
#   monotone on [0, 1] (w is c (t/a)**nu and then c), and an exact average
#   moves with each endpoint as f does (d avg/d beta = (f(beta) - avg) /
#   (beta - alpha), d avg/d alpha = (avg - f(alpha)) / (beta - alpha)), so
#   over a block pair it lies between its values at (first[I], first[J]) and
#   (last[I], last[J]), on a diagonal block (first, first + 1) and (last - 1,
#   last).  |P| grows, as f has one sign, and the grid is uniform but at a,
#   which ends a block, so R over a block pair is at most its value with the
#   |P| of (last[I], last[J]), the L of the innermost pair (a diagonal block's
#   shorter corner) and the larger corner |avg|.  A computed average is then
#   within 3R/2 of its exact one (R/2 covers the higher orders while eps <=
#   _ENVELOPE), so within 3R of the computed corners' range; the mode's
#   monotone map errs by a few ulp, which _SLACK * |bound| covers.
# - The corner bound.  An average's relative rounding R / |avg| is at most
#   its value at the innermost pair, (last[I], first[J]) or a diagonal
#   block's last step, as |P| grows and the grid is uniform up to a.  Mode 0
#   raises the averages to e1, e2; mode 1 multiplies the log average's
#   error by its size, below |nu| Lam with Lam = log(a / g[first[I]]); the
#   leaf adds 20 u: the sum E bounds a value's relative error.  The rounded
#   exponents fl(theta nu + 1) - 1 drift from consistent ones by u |e1'|
#   (modes 1, 2; e' the prefix exponents) or, in mode 0, u (1 + 3 |e2' -
#   1| + |e1'|/|e2|), e1' of the plain prefix p1 and e2' of p2, raised to
#   e2, moving a value by D = u Lam (|e1'| + |e2| (1 + 3 |e2' - 1|)).
#   A block row I's pairs up to a peak at (first[I], ramp), R / |avg| peaks at
#   the innermost pair of [I, I + 1] ([I, I] where I ends at a), and Lam and
#   D depend on I alone.  Computed corners need not grow with J, so chain
#   through exact values: a computed value is at most its exact value, and
#   so the exact corner's, times (1 + D)(1 + E), so at most the computed
#   corner times (1 + D)**2 (1 + E)**2 < 1 + 4 (D + E) while 4 (D + E) <=
#   _ENVELOPE, for a block pair or a row; elsewhere, and where a prefix or
#   cap read is below _FLOOR (1 + its value at a), it is +inf.
_SLACK = 1e-9
_TINY = 1e-300
_ENVELOPE = 1e-3
_FLOOR = 1e-280

_LOWEST = np.finfo(np.float64).min


def _pair_values(grid, p1, p2, cap, e1, e2, mode, i, j):
    """The mode's ratio and the interval lengths at the broadcastable indices (i, j)."""
    length = grid[j] - grid[i]
    vals = p1[j] - p1[i]
    vals /= length
    if mode == 0:
        if e1 != 1.0:  # x**1.0 == x
            vals **= e1
        a2 = p2[j] - p2[i]
        a2 /= length
        a2 **= e2
        vals *= a2
    elif mode == 1:
        # rounding is sign-symmetric, so this is exp(-(d2/L)) bit for bit
        a2 = p2[i] - p2[j]
        a2 /= length
        vals *= np.exp(a2, out=a2)
    else:
        np.divide(cap[j], vals, out=vals)
    return vals, length


def _best_pair(grid, p1, p2, cap, e1, e2, mode, rows, cols, mask):
    """(value, i, j): the largest score over the index slices rows x cols, floored at
    the lowest float, and its first pair.  NaN, and the empty intervals of a diagonal
    block if ``mask``, score -inf."""
    vals, length = _pair_values(grid, p1, p2, cap, e1, e2, mode, (rows, None), (None, cols))
    if mask:
        vals[length <= 0.0] = -np.inf
    k = int(vals.argmax())
    if vals.item(k) != vals.item(k):  # a NaN: argmax stops at the first one
        vals[np.isnan(vals)] = -np.inf
        k = int(vals.argmax())
    r, c = divmod(k, vals.shape[1])
    return max(vals.item(k), _LOWEST), rows.start + r, cols.start + c


def _partition(n, ramp):
    """(first, last) index of each block of n points: [0], [1], [2, 3], ..., _BLOCKs; one ends at ramp."""
    first = np.r_[0, 1 << np.arange(_BLOCK.bit_length() - 1), _BLOCK : n : _BLOCK, ramp + 1]
    first = np.unique(first[first < n])
    return first, np.append(first[1:] - 1, n - 1)


# The searches of a certificate, and of a `verify`, share one (n, ramp), so two
# entries of seven index arrays of at most n / _BLOCK each (0.1 MB at depth 17) suffice.
_LAYOUTS = 2


@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(n, ramp):
    """The weight-independent index arrays of a scan, read-only: the blocks' (first, last);
    the rows I >= 1 that hold a pair, and their innermost block pairs (I, J) (see
    _corner_bounds); row [0]'s bound before its scores, +inf for the column blocks up to the
    ramp and -inf past it; and the block pairs (0, J) of row [0] past the ramp."""
    first, last = _partition(n, ramp)
    rows = 1 + np.flatnonzero(first[1:] < last[-1])
    inner = np.minimum(rows + 1, first.size - 1)  # that of [I, I + 1], or [I, I] last
    head = np.where(last[1:] <= ramp, np.inf, -np.inf)
    past = np.flatnonzero(first > ramp)
    row0 = np.zeros_like(past)
    for x in (first, last, rows, inner, head, past, row0):
        x.flags.writeable = False
    return first, last, rows, (rows, inner), head, (row0, past)


def _prefix_rounding(grid, p1, p2, mode, ramp):
    """[eps of p1, of p2] (see _SLACK): a power prefix's, and in mode 1 the log prefix's."""
    u = 2.0**-53
    eps = [(abs(grid[ramp] / p[ramp]) + 12.0) * u for p in (p1, p2)]
    return [eps[0], 16.0 * u] if mode == 1 else eps


def _rounding(prefix, eps, i, j, length, size):
    """R (see _SLACK): how far a computed average of ``prefix``, which errs by eps, lies from
    the exact one over an interval at least ``length`` long, with end values at most
    |prefix[i]| and |prefix[j]| and an average of magnitude at most ``size``."""
    if eps > _ENVELOPE:
        return np.inf
    u = 2.0**-53
    return (eps * (np.abs(prefix[i]) + np.abs(prefix[j])) + _TINY) / length + 3.0 * u * size


def _block_bounds(grid, p1, p2, cap, e1, e2, mode, eps, first, last, blocks):
    """Upper bound on the mode's computed ratio over each block pair (I, J) = ``blocks``
    that holds a pair i < j, from its two extreme corners (see _SLACK): +inf where no
    bound holds (NaN, or averages that may be nonpositive where the mode needs them positive)."""
    I, J = blocks
    i0, j1 = first[I], last[J]  # the corners (i0, j0) and (i1, j1)
    j0, i1 = np.maximum(first[J], i0 + 1), np.minimum(last[I], j1 - 1)
    l0, l1 = grid[j0] - grid[i0], grid[j1] - grid[i1]
    short = np.where(I < J, grid[j0] - grid[i1], np.minimum(l0, l1))  # the shortest pair's length

    def averages(prefix, eps):  # (lo, hi): bounds on each block pair's computed averages
        a0, a1 = (prefix[j0] - prefix[i0]) / l0, (prefix[j1] - prefix[i1]) / l1
        widen = 3.0 * _rounding(prefix, eps, last[I], j1, short, np.maximum(np.abs(a0), np.abs(a1)))
        return np.minimum(a0, a1) - widen, np.maximum(a0, a1) + widen

    lo1, hi1 = averages(p1, eps[0])
    if mode == 0:
        lo2, hi2 = averages(p2, eps[1])
        f1 = (hi1 if e1 >= 0.0 else lo1) ** e1
        f2 = (hi2 if e2 >= 0.0 else lo2) ** e2
        bound = np.where((lo1 > 0.0) & (lo2 > 0.0), f1 * f2, np.inf)
    elif mode == 1:
        bound = hi1 * np.exp(-averages(p2, eps[1])[0])
    else:
        bound = np.where(lo1 > 0.0, cap[j1] / lo1, np.inf)  # the cap grows
    bound = bound + _SLACK * np.abs(bound) + _TINY
    bound[np.isnan(bound)] = np.inf
    return bound


def _corner_bounds(grid, p1, p2, cap, e1, e2, mode, eps, first, last, ramp, blocks, end):
    """Bounds from their corners (see _SLACK) on the pairs of block pairs (I, J) = ``blocks``
    up to column ``end`` <= ramp: last[J], or n - 1 for row I (J = I + 1, or I last)."""
    I, J = blocks
    i = last[I] - (I == J)  # the innermost pair
    j = np.maximum(first[J], i + 1)
    length = grid[j] - grid[i]

    def rounding(prefix, eps):  # R / |avg| at the innermost pair
        size = np.abs(prefix[j] - prefix[i]) / length
        return _rounding(prefix, eps, i, j, length, size) / size

    corner = _pair_values(grid, p1, p2, cap, e1, e2, mode, first[I], end)[0]
    u = 2.0**-53
    lam = np.log(grid[ramp] / grid[first[I]])
    x1 = abs(grid[ramp] / p1[ramp])
    err = rounding(p1, eps[0])
    drift = x1
    if mode == 0:
        x2 = abs(grid[ramp] / p2[ramp])
        err = abs(e1) * err + abs(e2) * rounding(p2, eps[1])
        drift = x1 + abs(e2) * (1.0 + 3.0 * abs(x2 - 1.0))
    elif mode == 1:
        err += (1.0 + x1) * lam * rounding(p2, eps[1])
    else:
        err += (x1 + 13.0) * u
    err = 4.0 * (err + u * drift * lam + 20.0 * u)
    ok = (err <= _ENVELOPE) & (corner >= _FLOOR)
    for x in (p1, cap if mode == 2 else p2):
        ok &= np.abs(x[first[I]]) >= _FLOOR * (1.0 + abs(x[ramp]))
    return np.where(ok, corner * (1.0 + err), np.inf)


def max_pair_ratio(grid, p1, p2, e1, e2, cap, mode, ramp):
    """Maximum of the mode's ratio over all index pairs i < j.

    Returns (best, i, j); ties resolve to the lexicographically
    smallest (i, j).  NaN scores -inf, so with no value above the
    lowest float the result is (lowest float, 0, 0).  The inputs, which
    the scan does not check, are those ``weights.sup_ratio_search``
    builds: equal-length float64 arrays over a strictly increasing grid,
    uniform but at a = grid[ramp], 1 <= ramp < n; prefixes of functions
    monotone on [0, 1], powers up to a and constant past it, or the log
    of one, p1 that of the plain average; and in mode 2, the only one that
    reads it, a nonnegative, nondecreasing cap.  `p2`/`e1`/`e2` are read
    only where the mode uses them.
    """
    n = grid.size
    first, last, R, inner, head, past = _layout(n, ramp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eps = _prefix_rounding(grid, p1, p2, mode, ramp)
        common = (grid, p1, p2, cap, e1, e2, mode, eps, first, last)  # the bounds' leading arguments
        best, bi, bj = _LOWEST, 0, 0

        def visit(row, bound):  # bound: of the row's block pairs, from its first pair on
            nonlocal best, bi, bj
            skip = first.size - bound.size  # the column blocks before the row's first pair
            rows = slice(int(first[row]), int(last[row]) + 1)
            step = max(_SLICE // (_BLOCK * (rows.stop - rows.start)), 1)  # blocks a slice
            # the column blocks [a, b) of each run still at or above best, from the edges of
            # the blocks that reach it, padded with one that does not at each end
            reach = np.zeros(bound.size + 2, dtype=bool)
            np.greater_equal(bound, best, out=reach[1:-1])
            runs = skip + np.flatnonzero(reach[1:] != reach[:-1])
            for a, b in runs.reshape(-1, 2):
                for s in range(a, b, step):
                    t = min(s + step, b)
                    if bound[s - skip : t - skip].max() >= best:
                        cols = slice(int(first[s]), int(last[t - 1]) + 1)
                        v, i, j = _best_pair(grid, p1, p2, cap, e1, e2, mode, rows, cols, s == row)
                        if v > best or (v == best and (i, j) < (bi, bj)):
                            best, bi, bj = v, i, j

        # row [0], one point, is scored first up to the ramp with no bound, as the lowest float
        # prunes nothing, and then past it where its two-corner bounds may reach best
        visit(0, head)
        if past[1].size:
            visit(0, _block_bounds(*common, past))
        # where the ramp is the last point each other row holding a pair is bounded by its corner
        # (first[I], n - 1) (see _SLACK); each row that may reach best, a few a call, bounds its
        # block pairs up to the ramp by their corners and, where those may, by two extreme corners
        if ramp == n - 1:
            R = R[_corner_bounds(*common, ramp, inner, ramp) >= best]
        top, bounds = np.full(first.size, -np.inf), {}  # row: the bounds of its block pairs
        for c in range(0, R.size, m := max(_CHUNK // first.size, 1)):  # m rows a call
            I, J = np.nonzero(last > first[R[c : c + m], None])
            I, up = R[c + I], np.full(J.size, np.inf)
            k = np.flatnonzero(last[J] <= ramp)
            if k.size:
                up[k] = _corner_bounds(*common, ramp, (I[k], J[k]), last[J[k]])
            k = np.flatnonzero(up >= best)
            if k.size:
                up[k] = np.minimum(up[k], _block_bounds(*common, (I[k], J[k])))
            cuts = np.flatnonzero(np.diff(I, prepend=-1))
            top[I[cuts]] = np.maximum.reduceat(up, cuts)
            bounds.update(zip(I[cuts].tolist(), np.split(up, cuts[1:])))
        # only a strictly smaller bound stops the scan or skips a slice, as an
        # equal one may tie at a smaller (i, j); a best of _LOWEST changes nothing
        for row in np.argsort(-top, kind="stable"):
            if top[row] < best:
                break
            visit(row, bounds.pop(row))
    return best, bi, bj

"""Exact block-pruned scan for the largest pairwise ratio of interval averages.

Every functional of the supremum search reduces to a closed-form ratio
of the interval averages (P[j] - P[i]) / (g[j] - g[i]) of prefix
integrals P over a nondecreasing grid g.  With d1, d2 and L the
increments of p1, p2 and the grid from i to j > i, mode 0 is
(d1/L)**e1 * (d2/L)**e2, mode 1 (d1/L) * exp(-(d2/L)), mode 2 cap[j] /
(d1/L).  The scan splits the indices into blocks graded toward the
origin, [0], [1], [2, 3], ..., [_BLOCK/2, _BLOCK - 1], then blocks of
``_BLOCK``: on a power of t every interval [0, b] ties at the best, and
that tie stays in the one-point row [0].  It bounds the ratio over every
block pair (the exponential mode also by Specht's ratio of the cell
slopes, 1 + O(spread**2) where the weight barely varies), visits block
rows in decreasing order of their largest bound, and scores each run of
column blocks whose bound can still reach the incumbent in slices of
about ``_SLICE`` pairs, in 8 array passes in modes 0 (9 where e1 != 1)
and 1 and 5 in mode 2.  Only a slice meeting the diagonal, or any on a
grid with a repeated point, masks empty intervals; only an argmax on a
NaN is retaken with the NaNs at -inf.  The scan scores inf and NaN under
one ``np.errstate`` and is bit-identical to evaluating every pair.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64
_SLICE = 8192  # pairs: smaller slices pay per-call overhead, larger ones spill L2

# Outward rounding of the block bounds.  A bound is computed with other
# float operations than the pair values it must dominate, so both carry
# rounding error:
# - A pair average is fl(fl(dP)/fl(dL)), within 3 ulp of the exact
#   average of the float inputs.  A bound on the averages of a block
#   pair is a few products and sums of the same inputs; with |M| and
#   |s| in place of the chord and the slopes (``size`` below) it bounds
#   every term, so the error of the bound, and of every pair average,
#   stays below 20 ulp of ``size`` (the standard gamma_n bound on sums).
#   Widening by _SLACK * size (about 4e6 ulp) therefore holds every
#   computed pair average inside [lo, hi], also when a log prefix mixes
#   signs and the sums cancel.
# - Past that point the pair value and the bound apply the same
#   monotone map (pow, exp, a product or a quotient) to points ordered
#   by the widening, so they differ only by the accuracy of those maps,
#   a few ulp; the second _SLACK * |bound| covers it.
# - Subnormal intermediates lose the relative bound but err by at most
#   a few 2**-1075 each; _TINY / gap covers them, and a final _TINY
#   covers subnormal results.
# - Specht term (mode 1).  The exact average of a pair is the
#   length-weighted mean of the exact slopes s1_k, s2_k of its cells.
#   With rho_k = s1_k * exp(-s2_k), the pair value A1 * exp(-A2) is
#   sum(l_k rho_k e**s2_k) / exp(sum(l_k s2_k)) <= rho_max * R, where
#   R is the weighted arithmetic over geometric mean of e**s2_k, which
#   lies in [1, S] for Specht's ratio S = r * exp(1/r - 1), with
#   r = expm1(D)/D and D = max s2 - min s2 (Math. Z. 74, 1960).  So the
#   value is at most max(rho_max * S, rho_max), the second for
#   rho_max < 0.  Each computed slope is within 3 ulp of the exact one,
#   so D errs by a few ulp of max|s2| and each rho_k by a few ulp times
#   1 + |s2_k|.  Widening rho_max, max s2 and -min s2 by
#   _SLACK * |x| + _TINY covers both (and keeps D > 0) while exp(-s2)
#   stays a normal float.  The computed pair value errs by 3 ulp of A1
#   and a few ulp times |A2| <= max|s2| in exp(-A2), which the final
#   _SLACK * |bound| covers with the error of S.  Where a cell has
#   s2 > _EXP_SAFE, exp(-s2) and exp(-A2) may be subnormal, so rho_max
#   is +inf there.  A zero-length cell (a repeated grid point) has an
#   inf or NaN slope; it is not a mean of slopes when the prefix jumps
#   there, and its inf or NaN reaches the bound, which is then +inf.
_SLACK = 1e-9
_TINY = 1e-300
_EXP_SAFE = 700.0

_LOWEST = np.finfo(np.float64).min


def _best_pair(grid, p1, p2, cap, e1, e2, mode, rows, cols, mask):
    """(value, i, j): the largest score over the index slices rows x cols, floored at
    the lowest float, and its first pair.  NaN, and empty intervals if ``mask``, score -inf."""
    length = grid[None, cols] - grid[rows, None]
    vals = p1[None, cols] - p1[rows, None]
    vals /= length
    if mode == 0:
        if e1 != 1.0:  # x**1.0 == x
            vals **= e1
        a2 = p2[None, cols] - p2[rows, None]
        a2 /= length
        a2 **= e2
        vals *= a2
    elif mode == 1:
        # rounding is sign-symmetric, so this is exp(-(d2/L)) bit for bit
        a2 = p2[rows, None] - p2[None, cols]
        a2 /= length
        vals *= np.exp(a2, out=a2)
    else:
        np.divide(cap[None, cols], vals, out=vals)
    if mask:
        vals[length <= 0.0] = -np.inf
    k = int(vals.argmax())
    if vals.item(k) != vals.item(k):  # a NaN: argmax stops at the first one
        vals[np.isnan(vals)] = -np.inf
        k = int(vals.argmax())
    r, c = divmod(k, vals.shape[1])
    return max(vals.item(k), _LOWEST), rows.start + r, cols.start + c


def _partition(n):
    """(first, last) index of each block of n points: [0], [1], [2, 3], ..., then _BLOCKs."""
    first = np.r_[0, 1 << np.arange(_BLOCK.bit_length() - 1), _BLOCK : n : _BLOCK]
    first = first[first < n]
    return first, np.append(first[1:] - 1, n - 1)


def _average_bounds(grid, prefix, slopes, first, last):
    """(lo, hi): outward bounds, indexed [I, J] for blocks I <= J, on the
    averages (P[j] - P[i]) / (g[j] - g[i]) with i in I, j in J and i < j.

    For I < J the average splits at i1 = last[I] and j0 = first[J] into the exact
    chord (P[j0] - P[i1]) / (g[j0] - g[i1]) and two flanks, each an
    average of adjacent slopes inside one block.  With the flank
    lengths l and r free in [0, len I] x [0, len J] the average is
    linear-fractional in (l, r), so its extremes sit at the 4 corners.
    """
    # slope k joins points k and k+1; the slot at a block's last point
    # joins two blocks (or lies past the grid) and is masked, to 0 in a
    # one-point block, which has no flank
    fill = np.where(first < last, np.inf, 0.0)
    cells = np.append(slopes, 0.0)
    cells[last] = -fill
    smax = np.maximum.reduceat(cells, first)
    cells[last] = fill
    smin = np.minimum.reduceat(cells, first)
    smag = np.maximum(np.abs(smax), np.abs(smin))
    chord = prefix[first][None, :] - prefix[last][:, None]
    gap = grid[first][None, :] - grid[last][:, None]
    span = grid[last] - grid[first]
    lo = hi = size = None
    for left in (0.0, span[:, None]):
        for right in (0.0, span[None, :]):
            length = gap + left + right
            up = (chord + smax[:, None] * left + smax[None, :] * right) / length
            down = (chord + smin[:, None] * left + smin[None, :] * right) / length
            mag = (np.abs(chord) + smag[:, None] * left + smag[None, :] * right) / length
            if lo is None:
                lo, hi, size = down, up, mag
            else:
                np.minimum(lo, down, out=lo)
                np.maximum(hi, up, out=hi)
                np.maximum(size, mag, out=size)
    widen = _SLACK * size + _TINY / gap
    lo -= widen
    hi += widen
    # inside one block the average is itself an average of the slopes
    widen = _SLACK * smag + _TINY
    np.fill_diagonal(lo, smin - widen)
    np.fill_diagonal(hi, smax + widen)
    return lo, hi


def _specht_bound(s1, s2, first, last):
    """Upper bound on the exponential mode's ratio over each block pair
    [I, J] with I <= J, from Specht's ratio of the cell slopes s1, s2 (see
    above _SLACK); entries with I > J are meaningless."""
    # per cell rho_k, s2_k and -s2_k, so that all three statistics are
    # maxima, and a slot past the last cell
    cells = np.pad(np.stack([s1 * np.exp(-s2), s2, -s2]), ((0, 0), (0, 1)))
    # block pair [I, J] spans the cells inside block I and, for each
    # later block K <= J, the cell joining K - 1 to K (at K = 0 the unread
    # slot past the last cell) and those inside K
    incoming = cells[:, first - 1]
    cells[:, last] = -np.inf
    inner = np.maximum.reduceat(cells, first, axis=1)
    np.maximum(incoming, inner, out=incoming)
    for stats in (inner, incoming):
        # x + _SLACK*|x| + _TINY is increasing, so widening a maximum
        # widens every cell under it; a block with no cell keeps -inf
        np.fmax(stats, stats + _SLACK * np.abs(stats) + _TINY, out=stats)
        stats[0, stats[1] > _EXP_SAFE] = np.inf
    # [I, K] holds block I's inner cells at K = I and incoming[K] past
    # it, so the running maximum along row I at J covers blocks I..J
    nb = first.size
    spread = np.where(np.tri(nb, k=-1, dtype=bool), -np.inf, incoming[:, None, :])
    spread[:, range(nb), range(nb)] = inner
    rho, top, bottom = np.maximum.accumulate(spread, axis=2, out=spread)
    term = top + bottom  # the spread D
    ratio = np.expm1(term)
    ratio /= term
    # Specht's ratio S = ratio * exp(1/ratio - 1), times rho
    np.divide(1.0, ratio, out=term)
    term -= 1.0
    np.exp(term, out=term)
    term *= ratio
    term *= rho
    return np.maximum(term, rho, out=term)


def _block_bounds(grid, p1, p2, cap, e1, e2, mode, first, last):
    """Upper bound on the mode's computed ratio over each block pair [I, J]:
    -inf where it holds no pair i < j, +inf where no bound holds (NaN, or
    averages that may be nonpositive where the mode needs them positive)."""
    length = np.diff(grid)
    s1 = np.diff(p1) / length
    lo1, hi1 = _average_bounds(grid, p1, s1, first, last)
    if mode != 2:
        s2 = np.divide(np.diff(p2), length, out=length)  # lengths not read again
        lo2, hi2 = _average_bounds(grid, p2, s2, first, last)
    if mode == 0:
        f1 = (hi1 if e1 >= 0.0 else lo1) ** e1
        f2 = (hi2 if e2 >= 0.0 else lo2) ** e2
        bound = np.where((lo1 > 0.0) & (lo2 > 0.0), f1 * f2, np.inf)
    elif mode == 1:
        bound = np.where(hi1 >= 0.0, hi1 * np.exp(-lo2), hi1 * np.exp(-hi2))
        np.minimum(bound, _specht_bound(s1, s2, first, last), out=bound)
    else:
        top = np.maximum.reduceat(cap, first)[None, :]
        bound = np.where(lo1 > 0.0, np.where(top >= 0.0, top / lo1, top / hi1), np.inf)
    bound = bound + _SLACK * np.abs(bound) + _TINY
    bound[np.isnan(bound)] = np.inf
    bound[last[None, :] <= first[:, None]] = -np.inf
    return bound


def max_pair_ratio(grid, p1, p2, e1, e2, cap, mode):
    """Maximum of the mode's ratio over all index pairs i < j.

    Returns (best, i, j); ties resolve to the lexicographically
    smallest (i, j).  Empty intervals score the lowest float and NaN
    scores -inf, so with no value above the lowest float the result is
    (lowest float, 0, 0).  Inputs are equal-length 1-D float arrays
    with a nondecreasing grid; `cap` is only read in mode 2 and
    `p2`/`e1`/`e2` only where the mode uses them.
    """
    g, q1, q2, cp = (np.asarray(x, dtype=np.float64) for x in (grid, p1, p2, cap))
    n = g.size
    if n < 2:
        raise ValueError("need at least two grid points")
    if q1.size != n or q2.size != n or cp.size != n:
        raise ValueError("prefix arrays must match the grid length")
    if not np.all(g[1:] >= g[:-1]):
        raise ValueError("grid must be nondecreasing")
    repeated = not np.all(g[1:] > g[:-1])
    first, last = _partition(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = _block_bounds(g, q1, q2, cp, e1, e2, mode, first, last)
        top = bound.max(axis=1)
        best, bi, bj = _LOWEST, 0, 0
        # only a strictly smaller bound stops the scan or skips a slice, as an
        # equal one may tie at a smaller (i, j); a best of _LOWEST changes nothing
        for row in np.argsort(-top, kind="stable"):
            if top[row] < best:
                break
            rows = slice(int(first[row]), int(last[row]) + 1)
            step = max(_SLICE // (_BLOCK * (rows.stop - rows.start)), 1)  # blocks a slice
            # the column blocks [a, b) of each run still at or above best
            runs = np.flatnonzero(np.diff(bound[row] >= best, prepend=False, append=False))
            for a, b in runs.reshape(-1, 2):
                for s in range(a, b, step):
                    t = min(s + step, b)
                    if bound[row, s:t].max() >= best:
                        cols = slice(int(first[s]), int(last[t - 1]) + 1)
                        v, i, j = _best_pair(g, q1, q2, cp, e1, e2, mode, rows, cols, repeated or s == row)
                        if v > best or (v == best and (i, j) < (bi, bj)):
                            best, bi, bj = v, i, j
    return best, bi, bj

"""Exact block-pruned scan for the largest pairwise ratio of interval averages.

Every functional of the supremum search reduces to a closed-form ratio
of the interval averages (P[j] - P[i]) / (g[j] - g[i]) of prefix
integrals P over a nondecreasing grid g.  With d1, d2 and L the
increments of p1, p2 and the grid from i to j > i, mode 0 is
(d1/L)**e1 * (d2/L)**e2, mode 1 (d1/L) * exp(-(d2/L)), mode 2 cap[j] /
(d1/L).  The scan splits the indices into blocks of ``_BLOCK``, bounds
the ratio over every pair of blocks, and evaluates the pairs of a block
pair (a leaf) only while its bound can still reach the incumbent,
visiting block pairs in decreasing bound order.  The exponential mode
also bounds each block pair by Specht's ratio of its cell slopes, which
is 1 + O(spread**2) where the weight barely varies.  Both bounds share
each prefix's cell slopes, and one ``np.errstate`` covers the scan,
which scores inf and NaN itself.  A leaf takes 8 array passes in modes 0
(9 where e1 != 1) and 1, and 5 in mode 2: only the diagonal, or every
leaf on a grid with a repeated point, masks empty intervals, and only an
argmax that lands on a NaN is taken again with the NaNs set to -inf.
The result is bit-identical to evaluating every pair.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64

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


def _best_pair(grid, p1, p2, cap, e1, e2, mode, i0, j0, mask):
    """(value, r, c): the block pair from (i0, j0)'s largest score, floored at the
    lowest float, and its first place.  NaN, and empty intervals if ``mask``, score -inf."""
    rows, cols = slice(i0, i0 + _BLOCK), slice(j0, j0 + _BLOCK)
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
    return max(vals.item(k), _LOWEST), r, c


def _by_block(values, nb, fill):
    """values laid out as nb rows of _BLOCK, padded with ``fill``."""
    padded = np.full(nb * _BLOCK, fill)
    padded[: values.size] = values
    return padded.reshape(nb, _BLOCK)


def _average_bounds(grid, prefix, slopes, first, last):
    """(lo, hi): outward bounds, indexed [I, J] for blocks I <= J, on the
    averages (P[j] - P[i]) / (g[j] - g[i]) with i in I, j in J and i < j.

    For I < J the average splits at i1 = last[I] and j0 = first[J] into the exact
    chord (P[j0] - P[i1]) / (g[j0] - g[i1]) and two flanks, each an
    average of adjacent slopes inside one block.  With the flank
    lengths l and r free in [0, len I] x [0, len J] the average is
    linear-fractional in (l, r), so its extremes sit at the 4 corners.
    """
    # slope k joins points k and k+1; the last slot of each block joins
    # two blocks and is dropped.  A one-point block has no flank.
    nb = first.size
    smax = _by_block(slopes, nb, -np.inf)[:, :-1].max(axis=1)
    smin = _by_block(slopes, nb, np.inf)[:, :-1].min(axis=1)
    single = first == last
    smax[single] = smin[single] = 0.0
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


def _specht_bound(s1, s2, nb):
    """Upper bound on the exponential mode's ratio over each block pair
    [I, J] with I <= J of nb blocks, from Specht's ratio of the cell
    slopes s1, s2 (see above _SLACK); entries with I > J are meaningless."""
    # per cell, laid out by block: rho_k, s2_k and -s2_k, so that all
    # three statistics are maxima
    cells = np.full((3, nb * _BLOCK), -np.inf)
    rho, top, bottom = cells[:, : s2.size]
    top[:] = s2
    np.negative(s2, out=bottom)
    np.exp(bottom, out=rho)
    rho *= s1
    cells = cells.reshape(3, nb, _BLOCK)
    # block pair [I, J] spans the cells inside block I and, for each
    # later block K <= J, the cell joining K - 1 to K and those inside K
    inner = cells[:, :, :-1].max(axis=2)
    incoming = inner.copy()
    np.maximum(inner[:, 1:], cells[:, :-1, -1], out=incoming[:, 1:])
    for stats in (inner, incoming):
        # x + _SLACK*|x| + _TINY is increasing, so widening a maximum
        # widens every cell under it
        stats += _SLACK * np.abs(stats) + _TINY
        stats[0, stats[1] > _EXP_SAFE] = np.inf
    # Rows of nb + 1 tiled from `incoming` hold incoming[I + c] at
    # [I, c] (wrapping only past c = nb - 1 - I, the last block); with
    # block I's inner cells at c = 0, the running maximum along a row
    # covers blocks I..I+c.  Read as rows of nb, [I, c] is [I, I + c].
    spread = np.tile(incoming, nb + 1).reshape(3, nb, nb + 1)
    spread[:, :, 0] = inner
    np.maximum.accumulate(spread, axis=2, out=spread)
    rho, top, bottom = spread.reshape(3, -1)[:, : nb * nb].reshape(3, nb, nb)
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
    """Upper bound on the mode's computed ratio over each block pair
    [I, J] with I <= J; +inf where no bound holds (NaN, or averages that
    may be nonpositive where the mode needs them positive)."""
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
        np.minimum(bound, _specht_bound(s1, s2, first.size), out=bound)
    else:
        top = _by_block(cap, first.size, -np.inf).max(axis=1)[None, :]
        bound = np.where(lo1 > 0.0, np.where(top >= 0.0, top / lo1, top / hi1), np.inf)
    bound = bound + _SLACK * np.abs(bound) + _TINY
    bound[np.isnan(bound)] = np.inf
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
    g = np.asarray(grid, dtype=np.float64)
    q1 = np.asarray(p1, dtype=np.float64)
    q2 = np.asarray(p2, dtype=np.float64)
    cp = np.asarray(cap, dtype=np.float64)
    n = g.size
    if n < 2:
        raise ValueError("need at least two grid points")
    if q1.size != n or q2.size != n or cp.size != n:
        raise ValueError("prefix arrays must match the grid length")
    if not np.all(g[1:] >= g[:-1]):
        raise ValueError("grid must be nondecreasing")
    repeated = not np.all(g[1:] > g[:-1])  # else only I == J has empty intervals
    first = np.arange(0, n, _BLOCK)
    last = np.minimum(first + _BLOCK - 1, n - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = _block_bounds(g, q1, q2, cp, e1, e2, mode, first, last)
        rows_i, cols_j = np.triu_indices(first.size)
        bound = bound[rows_i, cols_j]
        best, bi, bj = _LOWEST, 0, 0
        # only a strictly smaller bound stops the scan, as an equal one may
        # tie at a smaller (i, j); a leaf best of _LOWEST changes nothing
        for k in np.argsort(-bound, kind="stable"):
            if bound[k] < best:
                break
            i0, j0 = int(first[rows_i[k]]), int(first[cols_j[k]])
            v, r, c = _best_pair(g, q1, q2, cp, e1, e2, mode, i0, j0, repeated or i0 == j0)
            i, j = i0 + r, j0 + c
            if v > best or (v == best and (i, j) < (bi, bj)):
                best, bi, bj = v, i, j
    return best, bi, bj

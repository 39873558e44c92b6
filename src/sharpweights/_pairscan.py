"""Exact block-pruned scan for the largest pairwise ratio of interval averages.

Every functional of the supremum search is a closed-form ratio of the
averages (P[j] - P[i]) / (g[j] - g[i]) of prefix integrals P over a
strictly increasing grid g: with d1, d2 and L the increments of p1, p2 and g
from i to j > i, mode 0 is (d1/L)**e1 * (d2/L)**e2, mode 1 (d1/L) *
exp(-(d2/L)), mode 2 cap[j] / (d1/L).  The scan scores the row [0] of
blocks graded toward the origin whole, then in one pass bounds each other
row by one corner value (below), and where that may reach the best value
its block pairs by their own and, where those may reach it, by chords and
slopes; a corner bound past the ramp is +inf.  It scores rows by
decreasing bound, bit for bit.

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
_CHUNK = 8192  # block pairs a bound call, at about 400 bytes each: larger calls spill the cache

# Outward rounding, as a bound and the pair values it dominates round apart:
# - A pair average is within 3 ulp of the exact average of the float
#   inputs.  The generic bound on the averages of a block pair, with |M|
#   and |s| for the chord and the slopes (``size`` below), bounds every
#   term, so it and each average err by under 20 ulp of ``size`` (the
#   gamma_n bound on sums); _SLACK * size (4e6 ulp) covers both.  The
#   value and the bound then apply one monotone map, whose error the
#   second _SLACK * |bound| covers.  Subnormal intermediates err by a few
#   2**-1075 each, which _TINY / gap and a final _TINY cover.
# - The corner bound, with u = 2**-53 and 4 ulp for each pow, exp, log.
#   A power prefix (a/e)*(g/a)**e errs by (|e| + 12) u, as the rounding
#   of g/a is raised to e (e = g[ramp]/P[ramp] to a few ulp), a log prefix
#   by 16 u, the cap (g/a)**nu by (|nu| + 12) u.  An average errs by 3 u
#   plus that times c = (|P[i]| + |P[j]|) / |P[j] - P[i]|, at most its
#   value at the innermost pair, (last[I], first[J]) or a diagonal block's
#   last step, as |P| grows and the grid is uniform up to a.  Mode 0
#   raises the averages to e1, e2; mode 1 multiplies the log average's
#   error by its size, below |nu| Lam with Lam = log(a / g[first[I]]); the
#   leaf adds 20 u: the sum E bounds a value's relative error.  The rounded
#   exponents fl(theta nu + 1) - 1 drift from consistent ones by u |e1'|
#   (modes 1, 2; e' the prefix exponents) or, in mode 0, u (1 + 3 |e2' -
#   1| + |e1'|/|e2|), e1' of the plain prefix p1 and e2' of p2, raised to
#   e2, moving a value by D = u Lam (|e1'| + |e2| (1 + 3 |e2' - 1|)).
#   A block row I's pairs up to a peak at (first[I], ramp), c is largest at
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


def _partition(n, ramp=0):
    """(first, last) index of each block of n points: [0], [1], [2, 3], ..., _BLOCKs; one ends at ramp."""
    first = np.r_[0, 1 << np.arange(_BLOCK.bit_length() - 1), _BLOCK : n : _BLOCK, ramp + 1]
    first = np.unique(first[first < n])
    return first, np.append(first[1:] - 1, n - 1)


def _block_slopes(grid, prefixes, first, last):
    """[min, max, largest magnitude][prefix, block]: the slopes of each row of ``prefixes``
    between adjacent points of each block, 0 in a one-point block."""
    # slope k joins points k and k+1; a block's last slot joins two blocks or lies past the grid
    fill = np.where(first < last, np.inf, 0.0)
    cells = np.diff(prefixes, append=prefixes[:, -1:]) / np.diff(grid, append=grid[-1])
    cells[:, last] = -fill
    smax = np.maximum.reduceat(cells, first, axis=1)
    cells[:, last] = fill
    smin = np.minimum.reduceat(cells, first, axis=1)
    return np.array([smin, smax, np.maximum(np.abs(smax), np.abs(smin))])


def _average_bounds(grid, prefixes, slopes, first, last, I, J):
    """(lo, hi)[prefix, pair]: outward bounds on the averages (P[j] - P[i]) / (g[j] - g[i])
    of each prefix P, i in I, j in J and i < j, for each block pair (I, J), I <= J.

    For I < J the average splits at last[I] and first[J] into the exact chord and two
    flanks, each an average of adjacent slopes inside one block.  It is linear-fractional
    in the flank lengths, free in [0, len I] x [0, len J], so its extremes sit at the 4 corners.
    """
    chord = prefixes[:, first[J]] - prefixes[:, last[I]]
    gap = grid[first[J]] - grid[last[I]]
    span = grid[last] - grid[first]
    c, s, t = np.array([chord, chord, np.abs(chord)]), slopes[..., I], slopes[..., J]
    sign = np.array([-1.0, 1.0, 1.0])[:, None, None]
    ext = np.full(s.shape, -np.inf)  # -lo, hi and size (negation is exact)
    for left in (0.0, span[I]):
        cl, gl = c + s * left, gap + left
        for right in (0.0, span[J]):
            np.maximum(ext, sign * ((cl + t * right) / (gl + right)), out=ext)
    widen = _SLACK * ext[2] + _TINY / gap
    lo, hi = -ext[0] - widen, ext[1] + widen
    # inside one block the average is itself an average of the slopes
    d = np.flatnonzero(I == J)
    widen = _SLACK * s[2][:, d] + _TINY
    lo[:, d], hi[:, d] = s[0][:, d] - widen, s[1][:, d] + widen
    return lo, hi


def _block_bounds(grid, prefixes, slopes, cap, e1, e2, mode, first, last, blocks):
    """Upper bound on the mode's computed ratio over each block pair (I, J) = ``blocks``
    that holds a pair i < j, from the prefixes and their _block_slopes: +inf where no
    bound holds (NaN, or averages that may be nonpositive where the mode needs them positive)."""
    lo, hi = _average_bounds(grid, prefixes, slopes, first, last, *blocks)
    lo1, hi1, lo2, hi2 = lo[0], hi[0], lo[-1], hi[-1]
    if mode == 0:
        f1 = (hi1 if e1 >= 0.0 else lo1) ** e1
        f2 = (hi2 if e2 >= 0.0 else lo2) ** e2
        bound = np.where((lo1 > 0.0) & (lo2 > 0.0), f1 * f2, np.inf)
    elif mode == 1:
        bound = hi1 * np.exp(-lo2)
    else:
        top = np.maximum.reduceat(cap, first)[blocks[1]]
        bound = np.where(lo1 > 0.0, top / lo1, np.inf)
    bound = bound + _SLACK * np.abs(bound) + _TINY
    bound[np.isnan(bound)] = np.inf
    return bound


def _corner_bounds(grid, p1, p2, cap, e1, e2, mode, first, last, ramp, blocks, end):
    """Bounds from their corners (see _SLACK) on the pairs of block pairs (I, J) = ``blocks``
    up to column ``end``: last[J], or n - 1 for row I (J = I + 1, or I last); +inf past the ramp."""
    I, J = blocks
    i = last[I] - (I == J)  # the innermost pair
    j = np.maximum(first[J], i + 1)

    def cancellation(prefix):
        return (np.abs(prefix[i]) + np.abs(prefix[j])) / np.abs(prefix[j] - prefix[i])

    corner = _pair_values(grid, p1, p2, cap, e1, e2, mode, first[I], end)[0]
    u = 2.0**-53
    lam = np.log(grid[ramp] / grid[first[I]])
    x1 = abs(grid[ramp] / p1[ramp])
    err = (x1 + 12.0) * u * cancellation(p1) + 3.0 * u
    drift = x1
    if mode == 0:
        x2 = abs(grid[ramp] / p2[ramp])
        err = abs(e1) * err + abs(e2) * ((x2 + 12.0) * u * cancellation(p2) + 3.0 * u)
        drift = x1 + abs(e2) * (1.0 + 3.0 * abs(x2 - 1.0))
    elif mode == 1:
        err += (1.0 + x1) * lam * (16.0 * u * cancellation(p2) + 3.0 * u)
    else:
        err += (x1 + 13.0) * u
    err = 4.0 * (err + u * drift * lam + 20.0 * u)
    ok = (err <= _ENVELOPE) & (corner >= _FLOOR) & (end <= ramp)
    for x in (p1, cap if mode == 2 else p2):
        ok &= np.abs(x[first[I]]) >= _FLOOR * (1.0 + abs(x[ramp]))
    return np.where(ok, corner * (1.0 + err), np.inf)


def max_pair_ratio(grid, p1, p2, e1, e2, cap, mode, ramp=0):
    """Maximum of the mode's ratio over all index pairs i < j.

    Returns (best, i, j); ties resolve to the lexicographically
    smallest (i, j).  NaN scores -inf, so with no value above the
    lowest float the result is (lowest float, 0, 0).  The inputs, which
    the scan does not check, are those ``weights.sup_ratio_search``
    builds: equal-length float64 arrays over a strictly increasing grid,
    p1 the prefix of the plain average, the averages positive and the
    cap nonnegative; `cap` is only read in mode 2 and `p2`/`e1`/`e2`
    only where the mode uses them.  ``ramp`` > 0 marks the prefixes as
    those of a power up to grid[ramp], the corner bound's domain; 0 means
    there is no power ramp, and only chords and slopes bound the pairs.
    """
    first, last = _partition(grid.size, ramp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prefixes = np.array([p1] if mode == 2 else [p1, p2])
        slopes = functools.cache(lambda: _block_slopes(grid, prefixes, first, last))  # on first use
        best, bi, bj = _LOWEST, 0, 0

        def visit(row, bound):  # bound: of the row's block pairs, from its first pair on
            nonlocal best, bi, bj
            skip = first.size - bound.size  # the column blocks before the row's first pair
            rows = slice(int(first[row]), int(last[row]) + 1)
            step = max(_SLICE // (_BLOCK * (rows.stop - rows.start)), 1)  # blocks a slice
            # the column blocks [a, b) of each run still at or above best
            runs = skip + np.flatnonzero(np.diff(bound >= best, prepend=False, append=False))
            for a, b in runs.reshape(-1, 2):
                for s in range(a, b, step):
                    t = min(s + step, b)
                    if bound[s - skip : t - skip].max() >= best:
                        cols = slice(int(first[s]), int(last[t - 1]) + 1)
                        v, i, j = _best_pair(grid, p1, p2, cap, e1, e2, mode, rows, cols, s == row)
                        if v > best or (v == best and (i, j) < (bi, bj)):
                            best, bi, bj = v, i, j

        # row [0], one point, is scored first with no bound, as the lowest float prunes nothing
        visit(0, np.full(first.size - 1, np.inf))
        # each other row holding a pair is bounded by its corner (first[I], n - 1), +inf past
        # the ramp (see _SLACK); where that may reach best, its block pairs by theirs, a few
        # rows a call, and where those may, by the generic bound too (below, both prune alike)
        R = 1 + np.flatnonzero(first[1:] < last[-1])
        inner = (R, np.minimum(R + 1, first.size - 1))  # innermost: that of [I, I + 1], or [I, I] last
        R = R[_corner_bounds(grid, p1, p2, cap, e1, e2, mode, first, last, ramp, inner, last[-1]) >= best]
        top, bounds = np.full(first.size, -np.inf), {}  # row: the bounds of its block pairs
        for c in range(0, R.size, m := max(_CHUNK // first.size, 1)):  # m rows a call
            I, J = np.nonzero(last > first[R[c : c + m], None])
            I = R[c + I]
            up = _corner_bounds(grid, p1, p2, cap, e1, e2, mode, first, last, ramp, (I, J), last[J])
            r = np.flatnonzero(up >= best)
            if r.size:
                blocks = I[r], J[r]
                other = _block_bounds(grid, prefixes, slopes(), cap, e1, e2, mode, first, last, blocks)
                up[r] = np.minimum(up[r], other)
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

"""Exact block-pruned scan for the largest pairwise ratio of interval averages.

Every functional of the supremum search is a closed-form ratio of the
averages A and B of prefix integrals p1 and p2 over a strictly increasing
grid g, (P[j] - P[i]) / (g[j] - g[i]) for i < j: mode 2 is cap[j] / A, and
modes 0 and 1 are one Box-Cox formula, A exp(-G), or exp(G) / A where lam =
e2 > 0: G = log(e1 + B) / lam with p2 the prefix of w**lam - e1, e1 = 1 (the
Box-Cox prefix, lam times that of (w**lam - 1) / lam) or 0, and G = B with p2
the prefix of log w, the limit of the transform, at lam = 0.  Each prefix
integrates a monotone function, so the averages over a block pair lie between
those at its two extreme corners (see _SLACK).  The scan scores the row [0]
of blocks graded toward the origin whole up to the ramp, in column slices
fixed by (n, ramp), and past it the slices whose two extreme corners may
reach the best value.  Where the weight is a power on all of [0, 1] one
corner value, (1, n - 1), bounds every pair off row [0] (below), and the
scan ends there when that bound is below the best value; else it bounds
each other row by its own corner value, and the block pairs of each row
still open by their corner value up to the ramp and by their two extreme
corners.  It scores rows by decreasing bound, bit for bit.  The indices
that depend on (n, ramp) alone, and _SLICE, are built once per key
(_layout).

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
import math

import numpy as np

_BLOCK = 64
_SLICE = 8192  # pairs: smaller slices pay per-call overhead, larger ones spill L2
_CHUNK = 8192  # block pairs a bound call, at about 200 bytes each: larger calls spill the cache

# Outward rounding, as a bound and the pair values it dominates round apart,
# with u = 2**-53 (U) and 8 u for each pow, exp, expm1, log and log1p:
# - A power prefix (a/e)*(g/a)**e errs by eps = (|e| + 12) u, as the rounding of
#   g/a is raised to e (e = g[ramp]/P[ramp] to a few ulp), the cap (g/a)**nu by
#   (|nu| + 12) u, the Box-Cox prefix a x (expm1(k log x) - k) / (1 + k), k =
#   lam nu <= 0 (a nu x (log x - 1) at k = 0), by (20 + 9 |k| log(a / g[1])) u,
#   as its sum cancels nothing and x**k k log x / (x**k - 1 - k) <= 1 + |k log
#   x|.  So a computed average (P[j] - P[i]) / L is within R = eps (|P[i]| +
#   |P[j]|) / L + 3 u |avg| of the exact one on the float grid, to first order
#   (_rounding, which adds _TINY / L for subnormals, +inf where eps passes
#   _ENVELOPE).
# - The two-corner bound.  Each integrand (w, w**lam - e1, log w, the cap) is
#   monotone and of one sign, so an exact average over a block pair lies
#   between its values at (first[I], first[J]) and (last[I], last[J]) (on a
#   diagonal block (first, first + 1) and (last - 1, last)), and |P| grows.
#   The grid is uniform but at a, which ends a block, so R is at most its value
#   with the |P| of (last[I], last[J]), the L of the innermost pair and the
#   larger corner |avg|, and a computed average lies within 3R/2 of its exact
#   one (R/2 covers the higher orders while eps <= _ENVELOPE), so within 3R of
#   the computed corners' range.  A value rises with B (with -B at lam = 0)
#   and with A where lam <= 0 (falls where lam > 0), and each float step of
#   _box_cox_value is monotone; _SLACK * |bound| covers a few ulp of libm.
# - The corner bound.  R / |avg| at the innermost pair of a block pair, or of
#   [I, I + 1] for a row I ([I, I] where I ends at a), bounds its pairs': (eps
#   (|P[i]| + |P[j]|) + _TINY) / |P[j] - P[i]| + 3 u (_envelope).  With
#   Lam = log(a / g[first[I]]), G errs by dB / (|lam| (1 + B)) <= |dB / B| beta
#   at e1 = 1 (1 + B = <w**lam> >= 1, and |B / lam| and |G| are at most beta =
#   |nu| expm1(|k| Lam) / |k|, or |nu| Lam at k = 0), and by |dB / B| / |lam|
#   at e1 = 0: a value's relative error E is R_A / |A| plus R_B / |B| times
#   beta or 1 / |lam|, 20 u in the leaf, and (12 + 1 / (2 (1 + k))) u beta for
#   log1p, exp and the rounding of lam nu and 1 + k, which scales p2, or 9 u
#   |nu| Lam for log(B).  Rounded exponents drift from consistent ones, fl(nu
#   + 1) - 1 by u |e1'| / 2 (e' the prefix exponents) and fl(lam nu) by u |lam
#   nu| / 2, moving a value by D = u Lam (|e1'| + |nu|); a prefix of w**lam,
#   raised to 1/|lam|, by u Lam (|e1'| + (1 + 3 |e2' - 1|) / |lam|), the one
#   budget that grows with q - 1; the cap by u Lam |e1'|.  Computed corners
#   need not grow with J, so chain through exact values: a computed value is at
#   most the exact corner's times (1 + D)(1 + E), so at most the computed corner
#   times (1 + D)**2 (1 + E)**2 < 1 + 4 (D + E) while that is within _ENVELOPE;
#   elsewhere, and where a prefix or cap read is below _FLOOR (1 + its value at
#   a), it is +inf.
# - The one corner bound, where the ramp is the last point.  A pair off row [0]
#   has alpha >= g[1] and beta <= a, so its exact value is at most Phi(g[1] / a),
#   the exact value at the corner (1, n - 1), and its computed value at most that
#   times (1 + D)(1 + E) with the D and E of its row (above).  The corner lies in
#   row [1], so the computed corner times 1 + 4 (D + E), with the largest D + E
#   of the rows, bounds every pair off row [0]: one corner value and the rows'
#   envelopes replace the rows' corner values.  The rows' maxima are first taken
#   apart, in Python floats (_power_envelope): a row's innermost pair is a unit
#   cell [k, k + 1], 1 <= k <= n - 2; |P[k]| + |P[k + 1]| <= |P[n - 2]| + |P[n -
#   1]|, as |P| grows; on the uniform grid the exact cell integrals of a monotone
#   integrand are monotone in k, so a computed |dP| is at least the smaller of
#   those of [1, 2] and [n - 2, n - 1] less the two cells' rounding, 4 eps |P[n -
#   1]|; and beta and Lam are largest at g[1].  Each term of 4 (D + E) grows with
#   each of these, and each float step is monotone, so that scalar is at least
#   every row's envelope.  Where it does not bring the bound below best each row
#   keeps its own pairing of R / |avg| and Lam (_envelope): maxima taken apart
#   fail where an integrand vanishes at a (w**lam - 1) or at 0 (w, nu > 0), as
#   R / |avg| peaks at one end and beta at the other.  No envelope is below
#   _LEAST = 4 (3 u + 20 u), as every other term is >= 0, so where the corner
#   times 1 + _LEAST is not below best (on near-constant powers every value is
#   within a few u of 1) the bound is +inf with no envelope taken.  The _FLOOR
#   reads are smallest at g[1], as |P| grows.  The corner is taken in Python
#   floats by the leaf's steps (libm's rounding is within the leaf's 20 u); a zero
#   divisor, an overflow or the log of x <= 0 makes the bound +inf, as NaN does,
#   so it closes nothing.
_SLACK = 1e-9
_TINY = 1e-300
_ENVELOPE = 1e-3
_FLOOR = 1e-280
U = 2.0**-53
_LEAST = 92.0 * U

_LOWEST = np.finfo(np.float64).min


def _box_cox_value(avg, x, e1, e2):
    """A exp(-G), or exp(G) / A where lam = e2 > 0, in place of A = ``avg`` from the
    average x of p2: +-G = log(e1 + x) / |lam|, and -G = x = -B at lam = 0."""
    if e2:
        (np.log1p if e1 else np.log)(x, out=x)
        x *= 1.0 / abs(e2)
    np.exp(x, out=x)
    return np.divide(x, avg, out=avg) if e2 > 0.0 else np.multiply(avg, x, out=avg)


def _pair_values(grid, p1, p2, cap, e1, e2, mode, i, j):
    """The mode's ratio and the interval lengths at the broadcastable indices (i, j), or at
    i = None from the origin, where grid, p1 and p2 are +0.0 and x[j] - x[0] is x[j] bit for bit."""
    if i is None:
        length = grid[j]
        vals = p1[j] / length
    else:
        length = grid[j] - grid[i]
        vals = p1[j] - p1[i]
        vals /= length
    if mode == 2:
        return np.divide(cap[j], vals, out=vals), length
    if i is None:
        x = p2[j] / length
        if not e2:  # -B: where B is +0.0, -0.0 (0.0 - B gives +0.0), and exp maps both to 1
            np.negative(x, out=x)
    else:
        x = p2[j] - p2[i] if e2 else p2[i] - p2[j]  # -B at lam = 0: sign-symmetric, bit for bit
        x /= length
    return _box_cox_value(vals, x, e1, e2), length


def _best_pair(grid, p1, p2, cap, e1, e2, mode, rows, cols, mask):
    """(value, i, j): the largest score over the index slices rows x cols, floored at
    the lowest float, and its first pair.  NaN, and the empty intervals of a diagonal
    block if ``mask``, score -inf.  Row [0] is read from the origin where grid, p1 and p2
    are +0.0 there, all eight bytes zero: x - +0.0 is x bit for bit, but -0.0 - -0.0 is +0.0."""
    origin = rows.stop == 1 and grid[:1].tobytes() == p1[:1].tobytes() == p2[:1].tobytes() == bytes(8)
    i = None if origin else (rows, None)
    vals, length = _pair_values(grid, p1, p2, cap, e1, e2, mode, i, (None, cols))
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
# entries of nine index arrays of at most n / _BLOCK each (0.1 MB at depth 17) suffice.
_LAYOUTS = 2


@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(n, ramp, slice_pairs):
    """The weight-independent indices of a scan, read-only: the blocks' (first, last); the
    rows I >= 1 that hold a pair, their innermost block pairs (I, J), and their first points
    and innermost pairs (f, i, j) (see _corner_bounds); the column slices of row [0] up to
    the ramp, of at most ``slice_pairs`` pairs each; and the block pairs (0, J) past it."""
    first, last = _partition(n, ramp)
    rows = 1 + np.flatnonzero(first[1:] < last[-1])
    inner = np.minimum(rows + 1, first.size - 1)  # that of [I, I + 1], or [I, I] last
    f, i = first[rows], last[rows] - (rows == inner)
    j = np.maximum(first[inner], i + 1)
    step, end = max(slice_pairs // _BLOCK, 1), np.searchsorted(last, ramp) + 1
    head = tuple(slice(int(first[s]), int(last[min(s + step, end) - 1]) + 1) for s in range(1, end, step))
    past = np.flatnonzero(first > ramp)
    row0 = np.zeros_like(past)
    for x in (first, last, rows, inner, f, i, j, past, row0):
        x.flags.writeable = False
    return first, last, rows, (rows, inner), (f, i, j), head, (row0, past)


def _prefix_rounding(grid, p1, p2, e1, e2, ramp):
    """[eps of p1, of p2] (see _SLACK): a power prefix's, or the Box-Cox prefix's (e1 = 1)."""
    x1, x2 = (abs(grid[ramp] / p[ramp]) for p in (p1, p2))  # the prefix exponents e'
    box_cox = (20.0 + 9.0 * abs(e2 * (x1 - 1.0)) * np.log(grid[ramp] / grid[1])) * U  # nu = e1' - 1
    return [(x1 + 12.0) * U, box_cox if e1 else (x2 + 12.0) * U]


def _rounding(prefix, eps, i, j, length, size):
    """R (see _SLACK) of an average of ``prefix``, which errs by eps, over an interval at least
    ``length`` long, with end values at most |prefix[i]|, |prefix[j]| and size at most ``size``."""
    if eps > _ENVELOPE:
        return np.inf
    return (eps * (np.abs(prefix[i]) + np.abs(prefix[j])) + _TINY) / length + 3.0 * U * size


def _block_bounds(grid, p1, p2, cap, e1, e2, mode, eps, first, last, blocks):
    """Upper bound on the mode's computed ratio over each block pair (I, J) = ``blocks``
    that holds a pair i < j, from its two extreme corners (see _SLACK): +inf where no
    bound holds (NaN, or plain averages that may be nonpositive where it divides by them)."""
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
    divides = (mode == 2 or e2 > 0.0) & ~(lo1 > 0.0)  # by a plain average that may be <= 0
    if mode == 2:
        bound = cap[j1] / lo1  # the cap grows
    else:
        lo2, hi2 = averages(p2, eps[1])
        bound = _box_cox_value(lo1 if e2 > 0.0 else hi1, hi2 if e2 else -lo2, e1, e2)
    bound[divides] = np.inf
    bound = bound + _SLACK * np.abs(bound) + _TINY
    bound[np.isnan(bound)] = np.inf
    return bound


def _budget(x1, x2, e1, e2, mode, r1, r2, lam, expm1):
    """4 (D + E) (see _SLACK) at Lam = ``lam`` from the prefix exponents e' = (x1, x2) and R / |avg|
    of p1 and p2, r1 and r2 (None in mode 2): on arrays, or Python floats with ``math.expm1``."""
    nu, k = abs(x1 - 1.0), abs(e2 * (x1 - 1.0))
    err, drift = r1, x1
    if mode == 2:
        err += (x1 + 13.0) * U
    elif e1:  # the Box-Cox prefix, where k < 1 as the moment converges
        beta = nu * (expm1(k * lam) / k if k else lam)
        err += beta * (r2 + (12.0 + 0.5 / (1.0 - k)) * U) if k < 1.0 else math.inf
        drift += nu
    else:  # the prefix of w**lam
        err += r2 / abs(e2)
        drift += (1.0 + 3.0 * abs(x2 - 1.0)) / abs(e2) + 9.0 * nu
    return 4.0 * (err + U * drift * lam + 20.0 * U)


def _envelope(grid, p1, p2, e1, e2, mode, eps, ramp, lam, i, j):
    """4 (D + E) (see _SLACK) at Lam = ``lam`` for the rows, or block pairs, whose innermost
    pairs are (i, j)."""

    def rounding(prefix, eps):  # R / |avg| at the innermost pair
        if eps > _ENVELOPE:
            return np.inf
        step = np.abs(prefix[j] - prefix[i])
        return (eps * (np.abs(prefix[i]) + np.abs(prefix[j])) + _TINY) / step + 3.0 * U

    x1, x2 = abs(grid[ramp] / p1[ramp]), abs(grid[ramp] / p2[ramp])  # the prefix exponents e'
    r2 = None if mode == 2 else rounding(p2, eps[1])
    return _budget(x1, x2, e1, e2, mode, rounding(p1, eps[0]), r2, lam, np.expm1)


def _power_envelope(grid, p1, p2, e1, e2, mode, eps):
    """A Python float at least every row's envelope (_envelope) where the ramp is the last
    point, from maxima taken apart (see _SLACK); +inf where a step is undefined."""

    def rounding(prefix, eps):  # R / |avg| at least that of every unit cell [k, k + 1], 1 <= k <= n - 2
        if eps > _ENVELOPE:
            return math.inf
        b, c = prefix[1:3].tolist()
        y, z = prefix[-2:].tolist()
        step = min(abs(c - b), abs(z - y)) - 4.0 * eps * abs(z)
        return (eps * (abs(y) + abs(z)) + _TINY) / step + 3.0 * U if step > 0.0 else math.inf

    a = grid.item(-1)
    try:
        x1, x2 = abs(a / p1.item(-1)), abs(a / p2.item(-1))
        r2, lam = None if mode == 2 else rounding(p2, float(eps[1])), math.log(a / grid.item(1))
        return _budget(x1, x2, e1, e2, mode, rounding(p1, float(eps[0])), r2, lam, math.expm1)
    except (ArithmeticError, ValueError):  # a zero divisor, an overflow, or the log of x <= 0
        return math.inf


def _corner_bounds(grid, p1, p2, cap, e1, e2, mode, eps, first, last, ramp, blocks, end):
    """Bounds from their corners (see _SLACK) on the pairs of block pairs (I, J) = ``blocks``
    up to column ``end`` <= ramp: last[J], or n - 1 for row I (J = I + 1, or I last)."""
    I, J = blocks
    i = last[I] - (I == J)  # the innermost pair
    j = np.maximum(first[J], i + 1)
    corner = _pair_values(grid, p1, p2, cap, e1, e2, mode, first[I], end)[0]
    err = _envelope(grid, p1, p2, e1, e2, mode, eps, ramp, np.log(grid[ramp] / grid[first[I]]), i, j)
    ok = (err <= _ENVELOPE) & (corner >= _FLOOR)
    for x in (p1, cap if mode == 2 else p2):
        ok &= np.abs(x[first[I]]) >= _FLOOR * (1.0 + abs(x[ramp]))
    return np.where(ok, corner * (1.0 + err), np.inf)


def _power_bound(grid, p1, p2, cap, e1, e2, mode, eps, rows, best):
    """One bound (see _SLACK) on every pair off row [0] where the ramp is the last point: the
    corner value (1, n - 1), in Python floats by the leaf's steps, widened by _power_envelope
    where that brings it below ``best``, else by the largest envelope of the rows, from their
    first points and innermost pairs (f, i, j) = ``rows``; +inf where it does not hold or no
    envelope can bring it below best (the corner times 1 + _LEAST is not below), -inf where no
    pair is off row [0]."""
    f, i, j = rows
    if not f.size:
        return -math.inf
    g1, a, u1, v1, u2, v2 = (x.item(k) for x in (grid, p1, cap if mode == 2 else p2) for k in (1, -1))
    try:
        avg = (v1 - u1) / (a - g1)
        if mode == 2:
            corner = v2 / avg
        else:
            b = (v2 - u2 if e2 else u2 - v2) / (a - g1)
            b = math.exp((math.log1p(b) if e1 else math.log(b)) * (1.0 / abs(e2)) if e2 else b)
            corner = b / avg if e2 > 0.0 else avg * b
    except (ArithmeticError, ValueError):  # a zero divisor, an overflow, or the log of x <= 0
        return math.inf
    floors = corner >= _FLOOR and abs(u1) >= _FLOOR * (1.0 + abs(v1))
    if not (floors and abs(u2) >= _FLOOR * (1.0 + abs(v2)) and corner * (1.0 + _LEAST) < best):
        return math.inf  # a read below _FLOOR, or no envelope can bring the bound below best
    err = _power_envelope(grid, p1, p2, e1, e2, mode, eps)
    if not (err <= _ENVELOPE and corner * (1.0 + err) < best):
        err = _envelope(grid, p1, p2, e1, e2, mode, eps, grid.size - 1, np.log(a / grid[f]), i, j).max()
    return corner * (1.0 + err) if err <= _ENVELOPE else math.inf


def max_pair_ratio(grid, p1, p2, e1, e2, cap, mode, ramp):
    """Maximum of the mode's ratio over all index pairs i < j: (best, i, j), ties to the
    lexicographically smallest (i, j).  NaN scores -inf, so with no value above the lowest
    float the result is (lowest float, 0, 0).  The inputs, which the scan does not check,
    are those ``weights.sup_ratio_search`` builds: equal-length float64 arrays over a
    strictly increasing grid, uniform but at a = grid[ramp], 1 <= ramp < n; prefixes of
    monotone functions of one sign, constant past a, p1 that of w and p2 that of w**e2 - e1,
    or of log w at e2 = 0; in mode 2, which reads none of p2, e1, e2, a nonnegative,
    nondecreasing cap."""
    n = grid.size
    first, last, R, inner, innermost, head, past = _layout(n, ramp, _SLICE)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eps = _prefix_rounding(grid, p1, p2, e1, e2, ramp)
        common = (grid, p1, p2, cap, e1, e2, mode, eps, first, last)  # the bounds' leading arguments
        best, bi, bj = _LOWEST, 0, 0

        def score(rows, cols, mask):
            nonlocal best, bi, bj
            v, i, j = _best_pair(grid, p1, p2, cap, e1, e2, mode, rows, cols, mask)
            if v > best or (v == best and (i, j) < (bi, bj)):
                best, bi, bj = v, i, j

        def visit(row, bound):  # bound: of the row's block pairs, from its first pair on
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
                        score(rows, slice(int(first[s]), int(last[t - 1]) + 1), s == row)

        # row [0], one point, is scored first up to the ramp with no bound, as the lowest float
        # prunes nothing, in the layout's column slices, and then past it where its two-corner
        # bounds may reach best
        for cols in head:
            score(slice(0, 1), cols, False)
        if past[1].size:
            visit(0, _block_bounds(*common, past))
        # where the ramp is the last point one corner value bounds every pair off row [0] (see
        # _SLACK), and the scan ends if it is below best; else each row holding a pair is
        # bounded by its corner (first[I], n - 1).  Each row that may reach best, a few a call,
        # bounds its block pairs up to the ramp by their corners and, where those may, by two
        # extreme corners
        if ramp == n - 1:
            if _power_bound(*common[:8], innermost, best) < best:
                return best, bi, bj
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
        # the rows still open, by decreasing bound: only a strictly smaller bound stops the scan
        # or skips a slice, as an equal one may tie at a smaller (i, j)
        rows = np.flatnonzero(top >= best)
        for row in rows[np.argsort(-top[rows], kind="stable")] if rows.size else ():
            if top[row] < best:
                break
            visit(row, bounds.pop(row))
    return best, bi, bj

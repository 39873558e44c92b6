"""Timing of the block-pruned pair scan against the brute-force reference.

Both scans run on the prefix arrays the sup search builds for the
extremal weight at p = 2, q = 10 and delta in {1, 1.001, 2}, and must
agree bit for bit before they are timed.  At delta = 1 the weight is
constant and the scan returns without bounding; at delta = 1.001 it
barely varies.  The reference is the one the test suite checks
against (``brute_force_scan`` in ``tests/test_kernels.py``).  Run from
the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from sharpweights import _pairscan, extremal_weight  # noqa: E402
from sharpweights.weights import _prefix_log, _prefix_power  # noqa: E402
from test_kernels import brute_force_scan  # noqa: E402


DELTAS = (1.0, 1.001, 2.0)


def workloads(depth, delta):
    # the verification oracle's grids: moment scan (mode 0), exponential
    # scan (mode 1), sup-over-average scan (mode 2)
    w = extremal_weight(2.0, delta, (1.0, delta**2), "plus")
    n = (1 << depth) + 1
    grid = np.arange(n, dtype=np.float64) / float(n - 1)
    pref_avg = _prefix_power(grid, w.a, w.nu, 1.0)
    pref_dual = _prefix_power(grid, w.a, w.nu, -1.0 / 9.0)
    pref_log = _prefix_log(grid, w.a, w.nu)
    cap = (np.minimum(grid, w.a) / w.a) ** w.nu
    return {
        "moment": (grid, pref_avg, pref_dual, 1.0, 9.0, cap, 0),
        "exponential": (grid, pref_avg, pref_log, 0.0, 0.0, cap, 1),
        "sup": (grid, pref_avg, pref_avg, 0.0, 0.0, cap, 2),
    }


def best_time(fn, args):
    """Best of three, each long enough to time (at least 0.1 s)."""
    number = 1
    while True:
        t = timeit.timeit(lambda: fn(*args), number=number)
        if t >= 0.1:
            break
        number *= 4
    return min([t] + timeit.repeat(lambda: fn(*args), number=number, repeat=2)) / number


def visited_share(args):
    """Share of the block pairs (I <= J) whose pairs the scan evaluates."""
    calls = [0]
    leaf = _pairscan._pair_values

    def counted(*a):
        calls[0] += 1
        return leaf(*a)

    _pairscan._pair_values = counted
    try:
        _pairscan.max_pair_ratio(*args)
    finally:
        _pairscan._pair_values = leaf
    blocks = -(-len(args[0]) // _pairscan._BLOCK)
    return calls[0] / (blocks * (blocks + 1) // 2)


def main():
    print(f"{'scan':>12} {'delta':>6} {'depth':>5} {'points':>7} {'brute':>10} {'pruned':>10} "
          f"{'speedup':>8} {'visited':>8}")
    for depth in (8, 10, 12, 14):
        for delta in DELTAS:
            for name, args in workloads(depth, delta).items():
                got = _pairscan.max_pair_ratio(*args)
                assert got == brute_force_scan(*args), f"{name} at depth {depth}, delta {delta}: scans disagree"
                t_brute = best_time(brute_force_scan, args)
                t_pruned = best_time(_pairscan.max_pair_ratio, args)
                print(f"{name:>12} {delta:>6g} {depth:>5} {len(args[0]):>7} {t_brute * 1e3:>8.2f}ms "
                      f"{t_pruned * 1e3:>8.2f}ms {t_brute / t_pruned:>7.1f}x "
                      f"{visited_share(args):>7.1%}")


if __name__ == "__main__":
    main()

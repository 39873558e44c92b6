"""The estimator behind every end-to-end timing.

The host's CPU speed changes in phases that last from a fraction of a
second to minutes: a fast state, a normal state about 1.7x slower, states
in between, and now and then a stall.  CPU time equals wall time and steal
is about zero, so the guest cannot see the phases.  The share of time in
the fast state swings from 1% to over 50% between runs a few minutes
apart; the normal state is there in every run.

Each operation is run in several passes spread through the run, and the
time kept for it is the upper quartile of its passes (the fourth of five,
or halfway between the second and third of three): the time of the normal
state.  It reads the fast state only when the host is fast about two
thirds of the time or more, and a stall must hit a quarter of an
operation's passes to reach it.  The end-to-end metrics are taken over
those per-operation times; set-up time is the median of several fresh
starts spread through the run.  A workload whose operation is too long for
repeated passes within the run (a sharpness certificate, about a second)
runs one pass, and each of its operations already averages over many
phase changes.

The fastest pass, the median and the mean of the passes each wandered more
between runs of this host (README.md): the fastest and the median flip
between states when fast phases are rare or take half the time, and the
mean follows the swinging share.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # operations the tail percentile must leave above it
MIN_OPS = 4 * TAIL_BEYOND  # operations per workload, so the tail is a p75 or beyond


def per_op(times: list[float]) -> float:
    """The estimate of one operation's time from its passes."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def passes(seconds: float, nominal_pass_s: float, min_passes: int) -> int:
    """Pass count for a run of about ``seconds``, from a fixed nominal pass
    time, so the estimator is the same whatever the program's speed."""
    return max(min_passes, round(seconds / nominal_pass_s))


def probe_points(executions: int, probes: int) -> set[int]:
    """Execution indices, evenly spread, before which set-up is measured."""
    return {j * executions // probes for j in range(probes)}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    operations beyond it."""
    lat = sorted(latencies)
    rank = len(lat) - TAIL_BEYOND
    return lat[rank - 1], 100.0 * rank / len(lat)


def summarize(latencies: list[float]) -> dict[str, float]:
    """End-to-end timings from per-operation times in seconds."""
    if len(latencies) <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} operations, got {len(latencies)}")
    value, pct = tail(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "tail_percentile": pct,
    }


def spread(values: list[float]) -> float:
    """Distance between the first and third quartiles over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

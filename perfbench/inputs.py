"""Seeded inputs for the three workloads, built without calling the program.

The region is p uniform in [1.5, 6] and delta - 1 log-uniform in [1e-3, 1].
Exponents that must sit on one side of a critical exponent (q above q_star,
q below q_sub, t below t_star, the n-dimensional q above its own threshold)
are placed from the benchmark's own float solves of the log-form equations
below, so the program only ever receives the finished numbers.

Each equation takes its parameters and a math module ``M`` (``math`` or
``mpmath``), so the correctness checks solve the very same equations at 40
digits.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

P_RANGE = (1.5, 6.0)
LOG10_DELTA_M1 = (-3.0, 0.0)
DEPTH = 12  # dyadic grid depth of the sharpness certificate, the CLI default
N_DIM = 2  # dimension of the n-dimensional bound
TABLE_DRAWS = 100
TABLE_POOL = 400
N_OPS = {"cli_light": 42, "verify_certificate": 40, "constants_table": 40}
CLI_SUBCOMMANDS = ("constants", "gehring", "bellman", "extremal", "ndim", "sweep")
SWEEP_STEPS = 4


# -- log-form equations -------------------------------------------------------


def h_critical(x, p, delta, M):
    """Roots: q_star in (1, inf) and q_sub in ((p-1)/p, 1)."""
    return p * (M.log(x) - M.log(delta)) - M.log(1 + p * (x - 1))


def h_gehring(x, p, delta, M):
    """Root: t_star in (p, inf)."""
    return p * (M.log(delta) + M.log(x) - M.log(x - 1)) + M.log(x - p) - M.log(x)


def h_branch(u, p, log_t, M):
    """log F(u) - log t: u_plus in (0, 1/p), u_minus in (-inf, 0)."""
    return (p - 1) * M.log(1 - p * u) - p * M.log(1 - (p - 1) * u) - log_t


def h_ratio(y, p, log_l, M):
    """Root: the n-dimensional average-ratio bound y in (1, inf)."""
    return p * M.log(1 + y) - M.log(1 + y**p) - (p - 1) * log_l


def ndim_log_l(p, delta, M):
    """log L with L = 2 + 2**n (delta**(-p') - 1)."""
    return M.log(2 + 2**N_DIM * (M.exp(-p / (p - 1) * M.log(delta)) - 1))


def ndim_threshold(p, M):
    """Largest class norm with a finite bound: (2**n/(2**n - 1))**(1/p')."""
    cells = 2**N_DIM
    return M.exp((p - 1) / p * (M.log(cells) - M.log(cells - 1)))


def ndim_epsilon(p, delta, y, M):
    f = (y * y - y ** (2 - 2 * p)) / (y * y - 1)
    return delta * (f / p) * M.exp((1 - p) / p * (M.log(f - 1) - M.log(p - 1)))


# -- brackets and a float solver ----------------------------------------------


def solve(f, lo, hi, rtol=1e-15):
    """Root of f on [lo, hi] by the Illinois variant of regula falsi.

    f(lo) and f(hi) must be finite with opposite signs.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    side = 0
    x = lo
    for _ in range(400):
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0 or hi - lo <= rtol * abs(x):
            return x
        if (fx > 0.0) == (fhi > 0.0):
            hi, fhi = x, fx
            if side == -1:
                flo *= 0.5
            side = -1
        else:
            lo, flo = x, fx
            if side == 1:
                fhi *= 0.5
            side = 1
    return x


def bracket(name, p, c):
    """Finite float bracket with a sign change for each root."""
    if name == "q_star":
        hi = 2.0
        while h_critical(hi, p, c, math) <= 0.0:
            hi *= 2.0
        return 1.0, hi
    if name == "q_sub":
        lo = (p - 1.0) / p
        return lo + 1e-12 * (1.0 - lo), 1.0
    if name == "t_star":
        hi = 2.0 * p
        while h_gehring(hi, p, c, math) <= 0.0:
            hi *= 2.0
        return p * (1.0 + 1e-12), hi
    if name == "u_plus":
        return 0.0, (1.0 - 1e-15) / p
    if name == "u_minus":
        lo = -1.0
        while h_branch(lo, p, c, math) >= 0.0:
            lo *= 2.0
        return lo, 0.0
    if name == "y":
        hi = 2.0
        while h_ratio(hi, p, c, math) >= 0.0:
            hi *= 2.0
        return 1.0, hi
    raise KeyError(name)


EQUATIONS = {
    "q_star": h_critical,
    "q_sub": h_critical,
    "t_star": h_gehring,
    "u_plus": h_branch,
    "u_minus": h_branch,
    "y": h_ratio,
}


def float_root(name, p, c, rtol=1e-15):
    h = EQUATIONS[name]
    lo, hi = bracket(name, p, c)
    return solve(lambda x: h(x, p, c, math), lo, hi, rtol)


# -- draws --------------------------------------------------------------------


class Draw(NamedTuple):
    p: float
    delta: float
    q: float  # above q_star
    q_low: float  # between (p-1)/p and q_sub
    t: float  # between p and t_star
    x1: float  # interior domain point
    x2: float
    delta_nd: float  # below the n-dimensional threshold
    q_nd: float  # above q_star at the enlarged norm


def _delta(rng: random.Random) -> float:
    return 1.0 + 10.0 ** rng.uniform(*LOG10_DELTA_M1)


def make_draw(rng: random.Random, p: float | None = None, delta: float | None = None) -> Draw:
    p = rng.uniform(*P_RANGE) if p is None else p
    delta = _delta(rng) if delta is None else delta
    if delta == 1.0:
        # delta = 1 collapses every constant to 1; any admissible exponent works
        x1 = math.exp(rng.uniform(-1.0, 1.0))
        return Draw(p, 1.0, 2.0, (p - 1.0) / p + 0.5 / p, 2.0 * p, x1, x1**p, 1.0, 2.0)
    qs = float_root("q_star", p, delta, 1e-9)
    qsub = float_root("q_sub", p, delta, 1e-9)
    lo_q = (p - 1.0) / p
    ts = 1.0 / (1.0 - qsub)
    x1 = math.exp(rng.uniform(-1.0, 1.0))
    x2 = math.exp(p * (math.log(x1) + rng.uniform(0.05, 0.95) * math.log(delta)))
    delta_nd = 1.0 + (ndim_threshold(p, math) - 1.0) * rng.uniform(0.1, 0.6)
    y = float_root("y", p, ndim_log_l(p, delta_nd, math), 1e-9)
    eps = ndim_epsilon(p, delta_nd, y, math)
    qs_nd = float_root("q_star", p, eps, 1e-9)
    return Draw(
        p=p,
        delta=delta,
        q=qs + (qs - 1.0) * rng.uniform(0.5, 3.0),
        q_low=lo_q + (qsub - lo_q) * rng.uniform(0.2, 0.8),
        t=p + (ts - p) * rng.uniform(0.2, 0.8),
        x1=x1,
        x2=x2,
        delta_nd=delta_nd,
        q_nd=qs_nd + (qs_nd - 1.0) * rng.uniform(0.5, 3.0),
    )


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def table_inputs(seed: int) -> list[list[Draw]]:
    """40 tables of 100 draws, sliding by 10 over a pool of 400 draws, so
    each draw sits in ten tables; every tenth draw has p = 2 exactly."""
    rng = _rng("constants_table", seed)
    pool = [make_draw(rng, p=2.0 if k % 10 == 9 else None) for k in range(TABLE_POOL)]
    stride = TABLE_POOL // N_OPS["constants_table"]
    return [
        [pool[(stride * i + k) % TABLE_POOL] for k in range(TABLE_DRAWS)]
        for i in range(N_OPS["constants_table"])
    ]


def certificate_inputs(seed: int) -> list[Draw]:
    """40 (p, delta) draws; every eighth has delta = 1, where all pairs tie."""
    rng = _rng("verify_certificate", seed)
    return [
        make_draw(rng, delta=1.0 if i % 8 == 7 else None)
        for i in range(N_OPS["verify_certificate"])
    ]


def _fmt(x: float) -> str:
    return repr(float(x))


def cli_argv(sub: str, d: Draw, variant: int) -> list[str]:
    """Arguments of one CLI process; ``variant`` alternates regime or branch."""
    p, delta = _fmt(d.p), _fmt(d.delta)
    if sub == "constants":
        return ["constants", "--p", p, "--q", _fmt(d.q), "--delta", delta]
    if sub == "gehring":
        return ["gehring", "--p", p, "--t", _fmt(d.t), "--delta", delta]
    if sub == "bellman":
        q = d.q if variant == 0 else d.q_low
        return ["bellman", "--p", p, "--q", _fmt(q), "--delta", delta,
                "--x1", _fmt(d.x1), "--x2", _fmt(d.x2), "--limit"]
    if sub == "extremal":
        return ["extremal", "--p", p, "--delta", delta, "--x1", _fmt(d.x1),
                "--x2", _fmt(d.x2), "--branch", "plus" if variant == 0 else "minus"]
    if sub == "ndim":
        return ["ndim", "--p", p, "--q", _fmt(d.q_nd), "--n", str(N_DIM),
                "--delta", _fmt(d.delta_nd)]
    if sub == "sweep":
        return ["sweep", "--param", "q", "--from", _fmt(d.q), "--to", _fmt(2.0 * d.q),
                "--steps", str(SWEEP_STEPS), "--p", p, "--delta", delta]
    raise KeyError(sub)


def cli_inputs(seed: int) -> list[tuple[str, list[str], Draw]]:
    """42 processes cycling through the six subcommands."""
    rng = _rng("cli_light", seed)
    ops = []
    for i in range(N_OPS["cli_light"]):
        sub = CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]
        d = make_draw(rng)
        ops.append((sub, cli_argv(sub, d, (i // len(CLI_SUBCOMMANDS)) % 2), d))
    return ops


def build(workload: str, seed: int):
    return {
        "cli_light": cli_inputs,
        "verify_certificate": certificate_inputs,
        "constants_table": table_inputs,
    }[workload](seed)

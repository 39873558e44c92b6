"""Correctness checks of every output, outside the timed region.

Each result is compared with a reference computed apart from the program:
roots of the log-form equations in ``inputs`` solved by mpmath at 40
digits, the closed forms of the constants, the Bellman function and the
extremal weights evaluated at that precision, and properties the method
must have (the p = 2 closed form, t_star = 1/(1 - q_sub), the two Bellman
forms agreeing, the grid supremum approaching its constant from below).
Every check fails on a 1e-6 relative perturbation of the value it checks.
"""

from __future__ import annotations

import math

import mpmath as mp

import inputs
import workloads

mp.mp.dps = 40

RTOL = 1e-9  # agreement with a 40-digit reference or between two forms
SUP_RTOL = 1e-6  # a depth-12 grid supremum against its constant
SUP_ABOVE = 1e-9  # how far a supremum may exceed its constant (rounding)


class Mismatch(AssertionError):
    pass


def close(what, got, want, rtol=RTOL):
    if not (isinstance(got, float) and math.isfinite(got)
            and abs(mp.mpf(got) - want) <= rtol * abs(want)):
        raise Mismatch(f"{what}: got {got!r}, reference {mp.nstr(want, 17)}")


def same(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def supremum(what, sup, constant):
    """Grid supremum within SUP_RTOL of its constant, never above by more
    than SUP_ABOVE."""
    if not (isinstance(sup, float) and sup <= constant * (1 + SUP_ABOVE)
            and abs(mp.mpf(sup) - constant) <= SUP_RTOL * constant):
        raise Mismatch(f"{what}: supremum {sup!r} vs constant {mp.nstr(constant, 17)}")


# -- 40-digit references ------------------------------------------------------


def root(name, p, c):
    """Root of the equation ``inputs.EQUATIONS[name]`` at 40 digits.

    The Illinois solver of ``inputs`` runs in mpmath arithmetic, first on a
    narrow bracket around the float root and, without a sign change there,
    on the full analytic bracket.
    """
    h = inputs.EQUATIONS[name]
    pm, cm = mp.mpf(p), mp.mpf(c)
    f = lambda x: h(x, pm, cm, mp)
    seed = mp.mpf(inputs.float_root(name, float(p), float(c)))
    w = abs(seed) * mp.mpf("1e-10") + mp.mpf("1e-30")
    lo, hi = seed - w, seed + w
    if mp.sign(f(lo)) == mp.sign(f(hi)):
        lo, hi = (mp.mpf(v) for v in inputs.bracket(name, float(p), float(c)))
    return inputs.solve(f, lo, hi, rtol=mp.mpf("1e-36"))


def log_point(p, delta, x1, x2):
    return mp.log(x2) - mp.mpf(p) * (mp.log(x1) + mp.log(delta))


def branches(p, log_t):
    """(u_minus, u_plus) at t = exp(log_t)."""
    return root("u_minus", p, log_t), root("u_plus", p, log_t)


def c_q(q, qs):
    q = mp.mpf(q)
    return mp.exp((q - 1) * (mp.log(q - 1) - mp.log(q - qs)) - mp.log(qs))


def c_inf(qs):
    return mp.exp(qs - 1 - mp.log(qs))


def c_t(t, ts):
    t = mp.mpf(t)
    return (ts - 1) / ts * mp.exp((mp.log(ts) - mp.log(ts - t)) / t)


def bellman(p, q, s, r, x1):
    """Bellman value from the class and point parameters of one branch."""
    p, q = mp.mpf(p), mp.mpf(q)
    qc = q / (q - 1)
    g = p + qc - 1
    return (mp.mpf(x1) ** (1 - qc)
            * ((1 - p * s) / (1 - p * r)) ** qc
            * ((1 - (p - 1) * r) / (1 - (p - 1) * s)) ** (qc - 1)
            * (1 - g * r) / (1 - g * s))


def bellman_inf(p, s, r, x1):
    p = mp.mpf(p)
    return mp.exp(-mp.log(x1) + mp.log(1 - (p - 1) * r) + mp.log(1 - p * s)
                  - mp.log(1 - p * r) - mp.log(1 - (p - 1) * s)
                  + (s - r) / ((1 - p * s) * (1 - p * r)))


def weight(what, p, delta, x1, x2, c, a, nu):
    """The weight c (t/a)**nu on [0, a), c on [a, 1] has averages x1 and
    x2 (p-th moment, or ess sup at p = inf) and class norm delta."""
    c, a, nu = (mp.mpf(v) for v in (c, a, nu))
    close(f"{what} <w>", float(x1), c * (a / (1 + nu) + 1 - a))
    if math.isinf(p):
        close(f"{what} sup w", float(x2), c)
        close(f"{what} RH_inf norm", float(delta), nu + 1)
        return
    pm = mp.mpf(p)
    close(f"{what} <w^p>", float(x2), c**pm * (a / (1 + pm * nu) + 1 - a))
    close(f"{what} RH_p norm", float(delta), (1 + nu) / (1 + pm * nu) ** (1 / pm))


# -- per-workload checks ------------------------------------------------------


def constants(what, p, q, delta, q_star, cq, cinf):
    qs = root("q_star", p, delta)
    close(f"{what} q_star", q_star, qs)
    if p == 2.0:
        d = mp.mpf(delta)
        close(f"{what} q_star at p=2", q_star, d * d + d * mp.sqrt(d * d - 1))
    close(f"{what} c_q", cq, c_q(q, qs))
    close(f"{what} c_inf", cinf, c_inf(qs))
    return qs


def gehring(what, p, t, delta, t_star, ct):
    ts = root("t_star", p, delta)
    close(f"{what} t_star", t_star, ts)
    close(f"{what} c_t", ct, c_t(t, ts))
    return ts


def ndim(what, p, q, delta, y, eps, cq):
    y_ref = root("y", p, inputs.ndim_log_l(mp.mpf(p), mp.mpf(delta), mp))
    close(f"{what} y", y, y_ref)
    eps_ref = inputs.ndim_epsilon(mp.mpf(p), mp.mpf(delta), y_ref, mp)
    close(f"{what} epsilon", eps, eps_ref)
    close(f"{what} c_q", cq, c_q(q, root("q_star", p, eps_ref)))


def table(op, rows, seen):
    """One 100-draw table.  ``seen`` maps each draw already checked to its
    row; a draw met again must give exactly that row."""
    same("table length", len(rows), len(op))
    for k, (d, row) in enumerate(zip(op, rows)):
        if d in seen:
            same(f"draw {k} again", row, seen[d])
            continue
        what = f"draw {k} (p={d.p!r}, delta={d.delta!r})"
        v = dict(zip(workloads.TABLE_FIELDS, row))
        p, delta, x1, x2 = d.p, d.delta, d.x1, d.x2
        constants(what, p, d.q, delta, v["q_star"], v["c_q"], v["c_inf"])
        close(f"{what} q_sub", v["q_sub"], root("q_sub", p, delta))
        gehring(what, p, d.t, delta, v["t_star"], v["c_t"])
        close(f"{what} t_star = 1/(1 - q_sub)", v["t_star"], 1 / (1 - mp.mpf(v["q_sub"])))
        s_minus, s_plus = branches(p, -mp.mpf(p) * mp.log(delta))
        r_minus, r_plus = branches(p, log_point(p, delta, x1, x2))
        close(f"{what} r_minus", v["r_minus"], r_minus)
        close(f"{what} r_plus", v["r_plus"], r_plus)
        upper = bellman(p, d.q, s_plus, r_plus, x1)
        lower = bellman(p, d.q_low, s_minus, r_minus, x1)
        close(f"{what} bellman (q > q_star)", v["bellman_upper"], upper)
        close(f"{what} bellman (q < q_sub)", v["bellman_lower"], lower)
        close(f"{what} gamma form = value form (q > q_star)",
              v["gamma_upper"], mp.mpf(v["bellman_upper"]))
        close(f"{what} gamma form = value form (q < q_sub)",
              v["gamma_lower"], mp.mpf(v["bellman_lower"]))
        close(f"{what} bellman at q = inf", v["bellman_inf"], bellman_inf(p, s_plus, r_plus, x1))
        weight(f"{what} plus weight", p, delta, x1, x2, v["plus_c"], v["plus_a"], v["plus_nu"])
        weight(f"{what} minus weight", p, delta, x1, x2, v["minus_c"], v["minus_a"], v["minus_nu"])
        ndim(f"{what} ndim", p, d.q_nd, d.delta_nd, v["nd_y"], v["nd_epsilon"], v["nd_c_q"])
        seen[d] = row


def certificate(d, out):
    """One sharpness certificate."""
    v = dict(zip(workloads.CERTIFICATE_FIELDS, out))
    p, delta = d.p, d.delta
    what = f"certificate (p={p!r}, delta={delta!r})"
    if delta == 1.0:
        refs = {"c_q": mp.mpf(1), "c_inf": mp.mpf(1), "c_t": mp.mpf(1)}
        for name, ref in refs.items():
            close(f"{what} {name}", v[name], ref)
    else:
        qs = root("q_star", p, delta)
        ts = root("t_star", p, delta)
        refs = {"c_q": c_q(d.q, qs), "c_inf": c_inf(qs), "c_t": c_t(d.t, ts)}
        for name, ref in refs.items():
            close(f"{what} {name}", v[name], ref)
    close(f"{what} RH_inf norm", v["rhinf_norm"], mp.mpf(delta))
    x2 = delta**p
    weight(f"{what} plus weight", p, delta, 1.0, x2, v["plus_c"], v["plus_a"], v["plus_nu"])
    weight(f"{what} minus weight", p, delta, 1.0, x2, v["minus_c"], v["minus_a"], v["minus_nu"])
    weight(f"{what} p=inf weight", math.inf, delta, 1.0, delta, v["top_c"], v["top_a"], v["top_nu"])
    supremum(f"{what} A_q", v["sup_aq"], refs["c_q"])
    supremum(f"{what} A_inf", v["sup_ainf"], refs["c_inf"])
    supremum(f"{what} RH_t", v["sup_rhp"], refs["c_t"])
    supremum(f"{what} RH_inf", v["sup_rhinf"], mp.mpf(delta))


# -- CLI output ---------------------------------------------------------------


def parse_plain(stdout: str) -> list[dict[str, str]]:
    return [dict(kv.split("=", 1) for kv in line.split()) for line in stdout.splitlines()]


def _num(rec, key):
    return float(rec[key])


def cli(op, stdout: str):
    sub, argv, d = op
    args = dict(zip(argv[1::2], argv[2::2]))
    recs = parse_plain(stdout)
    what = f"cli {' '.join(argv)}"
    expected_rows = inputs.SWEEP_STEPS if sub == "sweep" else 1
    same(f"{what} rows", len(recs), expected_rows)
    rec = recs[0]
    for key in ("--p", "--q", "--t", "--delta", "--x1", "--x2"):
        if key in args and sub != "sweep":
            same(f"{what} echo {key}", _num(rec, key[2:]), float(args[key]))
    p = float(args["--p"])
    if sub == "constants":
        constants(what, p, d.q, d.delta, _num(rec, "q_star"), _num(rec, "c_q"), _num(rec, "c_inf"))
    elif sub == "gehring":
        gehring(what, p, d.t, d.delta, _num(rec, "t_star"), _num(rec, "c_t"))
    elif sub == "bellman":
        q = float(args["--q"])
        log_s = -mp.mpf(p) * mp.log(d.delta)
        s_minus, s_plus = branches(p, log_s)
        r_minus, r_plus = branches(p, log_point(p, d.delta, d.x1, d.x2))
        close(f"{what} r_minus", _num(rec, "r_minus"), r_minus)
        close(f"{what} r_plus", _num(rec, "r_plus"), r_plus)
        if q == d.q:
            value = bellman(p, q, s_plus, r_plus, d.x1)
        else:
            value = bellman(p, q, s_minus, r_minus, d.x1)
        close(f"{what} value", _num(rec, "value"), value)
        close(f"{what} limit_value", _num(rec, "limit_value"), bellman_inf(p, s_plus, r_plus, d.x1))
    elif sub == "extremal":
        same(f"{what} branch", rec["branch"], args["--branch"])
        weight(what, p, d.delta, d.x1, d.x2, _num(rec, "c"), _num(rec, "a"), _num(rec, "nu"))
        for key, scale in (("resid_x1", d.x1), ("resid_x2", d.x2), ("resid_delta", d.delta)):
            if not abs(_num(rec, key)) <= RTOL * scale:
                raise Mismatch(f"{what} {key} = {rec[key]}")
    elif sub == "ndim":
        same(f"{what} n", rec["n"], args["--n"])
        close(f"{what} threshold", _num(rec, "threshold"), inputs.ndim_threshold(mp.mpf(p), mp))
        ndim(what, p, d.q_nd, d.delta_nd, _num(rec, "y"), _num(rec, "epsilon"), _num(rec, "c_q"))
    elif sub == "sweep":
        start, stop, steps = float(args["--from"]), float(args["--to"]), int(args["--steps"])
        for i, row in enumerate(recs):
            q = start + i * (stop - start) / (steps - 1)
            same(f"{what} row {i} q", _num(row, "q"), q)
            same(f"{what} row {i} p", _num(row, "p"), p)
            same(f"{what} row {i} delta", _num(row, "delta"), d.delta)
            constants(f"{what} row {i}", p, q, d.delta,
                      _num(row, "q_star"), _num(row, "c_q"), _num(row, "c_inf"))
    else:
        raise KeyError(sub)


def check(workload: str, op, out, seen: dict) -> None:
    """Raise Mismatch unless ``out`` is the correct output of ``op``.

    ``seen`` is a dict the caller keeps for one run; it lets a table draw
    that recurs be checked once.
    """
    if workload == "cli_light":
        cli(op, out)
    elif workload == "verify_certificate":
        certificate(op, out)
    else:
        table(op, out, seen)

"""Command-line front end.

Subcommands: constants, gehring, bellman, extremal, verify, ndim,
sweep.  Output is key/value rows in plain, csv, or json (one object
per line) form; +inf prints as the literal token "inf" in every
format.  Exit codes: 0 success, 1 verification failure, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import embedding, ndim, weights
from .bellman import Parameters, bellman_infinity_value, bellman_value
from .domain import INF, boundary_values, validate_delta, validate_exponent
from .errors import DomainError, IterationError
from .roots import r_pair

Record = list[tuple[str, object]]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _emit(record: Record, fmt: str, header: bool = True) -> None:
    if fmt == "json":
        obj = {k: (_fmt(v) if isinstance(v, float) and math.isinf(v) else v) for k, v in record}
        print(json.dumps(obj))
    elif fmt == "csv":
        if header:
            print(",".join(k for k, _ in record))
        print(",".join(_fmt(v) for _, v in record))
    else:
        print(" ".join(f"{k}={_fmt(v)}" for k, v in record))


def _constants_record(p: float, q: float, delta: float) -> Record:
    if p is None or q is None or delta is None:
        raise DomainError("constants needs --p, --q and --delta")
    res_q = embedding.aq_constant(p, q, delta)
    res_inf = embedding.ainf_constant(p, delta)
    return [
        ("p", p),
        ("q", q),
        ("delta", delta),
        ("q_star", res_q.critical_exponent),
        ("c_q", res_q.constant),
        ("c_inf", res_inf.constant),
    ]


def _gehring_record(p: float, t: float, delta: float) -> Record:
    if p is None or t is None or delta is None:
        raise DomainError("gehring needs --p, --t and --delta")
    res = embedding.rht_constant(p, t, delta)
    return [
        ("p", p),
        ("t", t),
        ("delta", delta),
        ("t_star", res.critical_exponent),
        ("c_t", res.constant),
    ]


def _ndim_record(p: float, q: float, n: int, delta: float) -> Record:
    if p is None or q is None or n is None or delta is None:
        raise DomainError("ndim needs --p, --q, --n and --delta")
    threshold = ndim.delta_threshold(p, n)
    bound = ndim.ndim_aq_bound(p, q, n, delta)
    return [
        ("p", p),
        ("q", q),
        ("n", n),
        ("delta", delta),
        ("threshold", threshold),
        ("y", bound.y),
        ("epsilon", bound.epsilon),
        ("c_q", bound.constant),
    ]


def cmd_constants(args: argparse.Namespace) -> int:
    _emit(_constants_record(args.p, args.q, args.delta), args.format)
    return 0


def cmd_gehring(args: argparse.Namespace) -> int:
    _emit(_gehring_record(args.p, args.t, args.delta), args.format)
    return 0


def cmd_bellman(args: argparse.Namespace) -> int:
    params = Parameters(args.p, args.q, args.delta)
    x = (args.x1, args.x2)
    record: Record = [
        ("p", args.p),
        ("q", args.q),
        ("delta", args.delta),
        ("x1", args.x1),
        ("x2", args.x2),
    ]
    if not math.isinf(args.p):
        r_minus, r_plus = r_pair(args.p, args.delta, x)
        record += [("r_minus", r_minus), ("r_plus", r_plus)]
    record.append(("value", bellman_value(params, x)))
    if args.limit:
        record.append(("limit_value", bellman_infinity_value(args.p, args.delta, x)))
    _emit(record, args.format)
    return 0


def cmd_extremal(args: argparse.Namespace) -> int:
    x = (args.x1, args.x2)
    w = weights.extremal_weight(args.p, args.delta, x, args.branch)
    avg = weights.moment(w, 1.0)
    if math.isinf(args.p):
        upper = weights.ess_sup(w, 0.0, 1.0)
        norm = weights.rhinf_norm_closed(w)
    else:
        upper = weights.moment(w, args.p)
        norm = weights.rhp_norm_closed(w, args.p)
    record: Record = [
        ("p", args.p),
        ("delta", args.delta),
        ("x1", args.x1),
        ("x2", args.x2),
        ("branch", args.branch),
        ("c", w.c),
        ("a", w.a),
        ("nu", w.nu),
        ("resid_x1", avg - args.x1),
        ("resid_x2", upper - args.x2),
        ("resid_delta", norm - args.delta),
    ]
    _emit(record, args.format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.q is None) == (args.t is None):
        raise DomainError("verify needs exactly one of --q (moment mode) or --t (self-improvement mode)")
    p, delta = args.p, args.delta
    validate_exponent(p)
    validate_delta(delta)
    # the extremal weights start at the upper-curve point over x1 = 1
    x = (1.0, boundary_values(p, delta, 1.0)[1])
    if math.isinf(x[1]):
        raise DomainError(f"delta**p passes the float range at p = {p}, delta = {delta}")
    if args.t is not None:
        result = embedding.rht_constant(p, args.t, delta)
        w = weights.extremal_weight(p, delta, x, "minus")
        kind = weights.FunctionalKind.rh_p(args.t)
        swept = ("t", args.t)
    else:
        w = weights.extremal_weight(p, delta, x, "plus")
        kind = weights.FunctionalKind.aq(args.q)
        result = embedding.aq_constant(p, args.q, delta)
        swept = ("q", args.q)
    sup, (alpha, beta) = weights.sup_ratio_search(w, kind, args.depth)
    constant = result.constant
    if math.isinf(constant) and math.isinf(sup):
        rel_err = 0.0
    elif math.isinf(constant) or math.isinf(sup):
        rel_err = INF
    else:
        rel_err = abs(sup - constant) / constant
    ok = rel_err <= args.tol
    record: Record = [
        ("p", p),
        swept,
        ("delta", delta),
        ("depth", args.depth),
        ("constant", constant),
        ("sup", sup),
        ("argmax_alpha", alpha),
        ("argmax_beta", beta),
        ("rel_err", rel_err),
        ("status", "ok" if ok else "mismatch"),
    ]
    _emit(record, args.format)
    return 0 if ok else 1


def cmd_ndim(args: argparse.Namespace) -> int:
    _emit(_ndim_record(args.p, args.q, args.n, args.delta), args.format)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise DomainError("--steps must be at least 2")
    if not math.isfinite(args.start) or not math.isfinite(args.stop):
        raise DomainError("sweep endpoints must be finite")
    fixed = {"p": args.p, "q": args.q, "t": args.t, "delta": args.delta, "n": args.n}
    if args.t is not None or args.param == "t":
        builder = lambda v: _gehring_record(v["p"], v["t"], v["delta"])
    elif args.n is not None:
        builder = lambda v: _ndim_record(v["p"], v["q"], v["n"], v["delta"])
    else:
        builder = lambda v: _constants_record(v["p"], v["q"], v["delta"])
    header = True
    for i in range(args.steps):
        value = args.start + i * (args.stop - args.start) / (args.steps - 1)
        point = dict(fixed)
        point[args.param] = value
        _emit(builder(point), args.format, header=header)
        header = False
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain",
        help="output format (default plain)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharp-weights",
        description="Sharp constants for reverse-Holder and moment weight classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="critical exponent and embedding constants")
    c.add_argument("--p", type=float, required=True, help="class exponent (> 1 or 'inf')")
    c.add_argument("--q", type=float, required=True, help="moment exponent (> 1)")
    c.add_argument("--delta", type=float, required=True, help="class norm (>= 1)")
    _add_format(c)
    c.set_defaults(func=cmd_constants)

    g = sub.add_parser("gehring", help="self-improvement threshold and constant")
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--t", type=float, required=True, help="target exponent (>= p)")
    g.add_argument("--delta", type=float, required=True)
    _add_format(g)
    g.set_defaults(func=cmd_gehring)

    b = sub.add_parser("bellman", help="boundary supremum value at a point")
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--q", type=float, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--x1", type=float, required=True)
    b.add_argument("--x2", type=float, required=True)
    b.add_argument("--limit", action="store_true", help="also emit the q -> inf limit value")
    _add_format(b)
    b.set_defaults(func=cmd_bellman)

    e = sub.add_parser("extremal", help="optimizing weight at a point, with self-check residuals")
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--delta", type=float, required=True)
    e.add_argument("--x1", type=float, required=True)
    e.add_argument("--x2", type=float, required=True)
    e.add_argument("--branch", choices=("plus", "minus"), default="plus")
    _add_format(e)
    e.set_defaults(func=cmd_extremal)

    v = sub.add_parser("verify", help="numeric sharpness check of a constant")
    v.add_argument("--p", type=float, required=True)
    v.add_argument("--q", type=float, default=None)
    v.add_argument("--t", type=float, default=None)
    v.add_argument("--delta", type=float, required=True)
    v.add_argument("--depth", type=int, default=12, help="dyadic grid depth (default 12)")
    v.add_argument("--tol", type=float, default=1e-6, help="relative tolerance (default 1e-6)")
    _add_format(v)
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("ndim", help="dyadic-cube bounds in n dimensions")
    d.add_argument("--p", type=float, required=True)
    d.add_argument("--q", type=float, required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--delta", type=float, required=True)
    _add_format(d)
    d.set_defaults(func=cmd_ndim)

    s = sub.add_parser("sweep", help="table of constants along one swept parameter")
    s.add_argument("--param", required=True, choices=("delta", "q", "t", "p"))
    s.add_argument("--from", dest="start", type=float, required=True)
    s.add_argument("--to", dest="stop", type=float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--q", type=float, default=None)
    s.add_argument("--t", type=float, default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--delta", type=float, default=None)
    _add_format(s)
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, IterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

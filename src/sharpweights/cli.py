"""Command-line front end.

Subcommands: constants, gehring, bellman, extremal, verify, ndim,
sweep.  Each is a function from the parsed arguments to records, and
``main`` prints them as key/value rows in plain, csv, or json (one
object per line) form; +inf prints as the literal token "inf" in every
format.  ``verify --depth`` must lie in [1, ``weights._MAX_DEPTH``] and
``--tol`` must be at least 0; the supremum ``verify`` prints is the corner
pair's value in closed form, the same at every depth, and the depth sets
only its witness, argmax_beta = min(a, 2**-depth).  Exit codes: 0
success, 1 verification failure (``status=mismatch``), 2 usage or domain
error, 3 internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterator

from . import embedding, weights
from .bellman import Parameters, bellman_infinity_value, bellman_value
from .domain import INF, boundary_values
from .errors import DomainError
from .ndim import delta_threshold, ndim_aq_bound
from .roots import r_pair

Record = list[tuple[str, object]]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _render(record: Record, fmt: str, header: bool) -> str:
    if fmt == "json":
        import json  # only this format needs it

        return json.dumps({k: _fmt(v) if isinstance(v, float) and math.isinf(v) else v
                           for k, v in record})
    if fmt == "csv":
        row = ",".join(_fmt(v) for _, v in record)
        return ",".join(k for k, _ in record) + "\n" + row if header else row
    return " ".join(f"{k}={_fmt(v)}" for k, v in record)


def constants(args: argparse.Namespace) -> Iterator[Record]:
    res_q = embedding.aq_constant(args.p, args.q, args.delta)
    res_inf = embedding.ainf_constant(args.p, args.delta)
    yield [
        ("p", args.p), ("q", args.q), ("delta", args.delta),
        ("q_star", res_q.critical_exponent),
        ("c_q", res_q.constant),
        ("c_inf", res_inf.constant),
    ]


def gehring(args: argparse.Namespace) -> Iterator[Record]:
    res = embedding.rht_constant(args.p, args.t, args.delta)
    yield [
        ("p", args.p), ("t", args.t), ("delta", args.delta),
        ("t_star", res.critical_exponent),
        ("c_t", res.constant),
    ]


def bellman(args: argparse.Namespace) -> Iterator[Record]:
    params = Parameters(args.p, args.q, args.delta)
    x = (args.x1, args.x2)
    record: Record = [
        ("p", args.p), ("q", args.q), ("delta", args.delta), ("x1", args.x1), ("x2", args.x2),
    ]
    if not math.isinf(args.p):
        r_minus, r_plus = r_pair(args.p, args.delta, x)
        record += [("r_minus", r_minus), ("r_plus", r_plus)]
    record.append(("value", bellman_value(params, x)))
    if args.limit:
        record.append(("limit_value", bellman_infinity_value(args.p, args.delta, x)))
    yield record


def extremal(args: argparse.Namespace) -> Iterator[Record]:
    w = weights.extremal_weight(args.p, args.delta, (args.x1, args.x2), args.branch)
    avg = weights.moment(w, 1.0)
    if math.isinf(args.p):
        upper = weights.ess_sup(w, 0.0, 1.0)
        norm = weights.rhinf_norm_closed(w)
    else:
        upper = weights.moment(w, args.p)
        norm = weights.rhp_norm_closed(w, args.p)
    yield [
        ("p", args.p), ("delta", args.delta), ("x1", args.x1), ("x2", args.x2),
        ("branch", args.branch), ("c", w.c), ("a", w.a), ("nu", w.nu),
        ("resid_x1", avg - args.x1),
        ("resid_x2", upper - args.x2),
        ("resid_delta", norm - args.delta),
    ]


def verify(args: argparse.Namespace) -> Iterator[Record]:
    if (args.q is None) == (args.t is None):
        raise DomainError("verify needs exactly one of --q (moment mode) or --t (self-improvement mode)")
    if not args.tol >= 0.0:
        raise DomainError(f"--tol must be a number >= 0, got {args.tol}")
    p, delta = args.p, args.delta
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
    if sup == constant:  # both inf in the critical band
        rel_err = 0.0
    else:
        rel_err = INF if math.isinf(constant) else abs(sup - constant) / constant
    yield [
        ("p", p), swept, ("delta", delta), ("depth", args.depth),
        ("constant", constant),
        ("sup", sup),
        ("argmax_alpha", alpha),
        ("argmax_beta", beta),
        ("rel_err", rel_err),
        ("status", "ok" if rel_err <= args.tol else "mismatch"),
    ]


def ndim(args: argparse.Namespace) -> Iterator[Record]:
    threshold = delta_threshold(args.p, args.n)
    bound = ndim_aq_bound(args.p, args.q, args.n, args.delta)
    yield [
        ("p", args.p), ("q", args.q), ("n", args.n), ("delta", args.delta),
        ("threshold", threshold),
        ("y", bound.y),
        ("epsilon", bound.epsilon),
        ("c_q", bound.constant),
    ]


def sweep(args: argparse.Namespace) -> Iterator[Record]:
    if args.steps < 2:
        raise DomainError(f"--steps must be at least 2, got steps = {args.steps}")
    if not math.isfinite(args.start) or not math.isfinite(args.stop):
        raise DomainError(
            f"sweep endpoints must be finite, got from = {args.start}, to = {args.stop}"
        )
    if args.t is not None or args.param == "t":
        name = "gehring"
    else:
        name = "constants" if args.n is None else "ndim"
    command, _, flags = COMMANDS[name]
    flags = flags.split()
    if any(getattr(args, f) is None for f in flags if f != args.param):
        raise DomainError(f"{name} needs --{', --'.join(flags[:-1])} and --{flags[-1]}")
    for i in range(args.steps):
        point = argparse.Namespace(**vars(args))
        setattr(point, args.param, args.start + i * (args.stop - args.start) / (args.steps - 1))
        yield from command(point)


# Every flag once; each subcommand lists its flags in usage order, the
# optional ones in brackets.
_FLAGS = {
    "param": dict(choices=("delta", "q", "t", "p")),
    "from": dict(dest="start", type=float),
    "to": dict(dest="stop", type=float),
    "steps": dict(type=int),
    "p": dict(type=float, help="class exponent (> 1 or 'inf')"),
    "q": dict(type=float, help="moment exponent (> 1)"),
    "t": dict(type=float, help="target exponent (>= p)"),
    "n": dict(type=int),
    "delta": dict(type=float, help="class norm (>= 1)"),
    "x1": dict(type=float),
    "x2": dict(type=float),
    "limit": dict(action="store_true", help="also emit the q -> inf limit value"),
    "branch": dict(choices=("plus", "minus"), default="plus"),
    "depth": dict(type=int, default=12,
                  help=f"dyadic grid depth in [1, {weights._MAX_DEPTH}] (default 12)"),
    "tol": dict(type=float, default=1e-6, help="relative tolerance >= 0 (default 1e-6)"),
    "format": dict(choices=("plain", "csv", "json"), default="plain",
                   help="output format (default plain)"),
}

COMMANDS = {
    "constants": (constants, "critical exponent and embedding constants", "p q delta"),
    "gehring": (gehring, "self-improvement threshold and constant", "p t delta"),
    "bellman": (bellman, "boundary supremum value at a point", "p q delta x1 x2 [limit]"),
    "extremal": (extremal, "optimizing weight at a point, with self-check residuals",
                 "p delta x1 x2 [branch]"),
    "verify": (verify, "numeric sharpness check of a constant", "p [q] [t] delta [depth] [tol]"),
    "ndim": (ndim, "dyadic-cube bounds in n dimensions", "p q n delta"),
    "sweep": (sweep, "table of constants along one swept parameter",
              "param from to steps [p] [q] [t] [n] [delta]"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharp-weights",
        description="Sharp constants for reverse-Holder and moment weight classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in (*flags.split(), "[format]"):
            key = flag.strip("[]")
            command.add_argument(f"--{key}", required=key == flag, **_FLAGS[key])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and print its records; return the exit code."""
    args = build_parser().parse_args(argv)
    code = 0
    try:
        for i, record in enumerate(COMMANDS[args.command][0](args)):
            print(_render(record, args.format, header=i == 0))
            if ("status", "mismatch") in record:
                code = 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only a crash needs it

        traceback.print_exc()
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

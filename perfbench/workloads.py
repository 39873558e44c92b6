"""The operations of the three workloads and their warm-up calls.

One operation is:

- ``cli_light``: one fresh ``python -m sharpweights.cli`` process;
- ``verify_certificate``: one in-process sharpness certificate for a draw;
- ``constants_table``: one 100-draw table through the scalar API.

The package is imported from ``src/`` of the checkout, never from an
installed copy, and with the tuning variables of the package unset.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
UNSET = ("SHARP_WEIGHTS_TOL", "SHARP_WEIGHTS_KERNEL")
CLI_TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_package():
    """Import sharpweights from src/ in this process, tuning variables unset."""
    for name in UNSET:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sharpweights

    return sharpweights


# -- operations ---------------------------------------------------------------


def table_op(sw, table):
    """Every scalar entry point on each draw; returns one tuple per draw."""
    rows = []
    for d in table:
        p, delta, x = d.p, d.delta, (d.x1, d.x2)
        upper = sw.Parameters(p, d.q, delta)
        lower = sw.Parameters(p, d.q_low, delta)
        plus = sw.extremal_weight(p, delta, x, "plus")
        minus = sw.extremal_weight(p, delta, x, "minus")
        nd = sw.ndim_aq_bound(p, d.q_nd, inputs.N_DIM, d.delta_nd)
        rows.append((
            sw.q_star(p, delta),
            sw.q_sub(p, delta),
            sw.t_star(p, delta),
            sw.aq_constant(p, d.q, delta).constant,
            sw.ainf_constant(p, delta).constant,
            sw.rht_constant(p, d.t, delta).constant,
            sw.bellman_value(upper, x),
            sw.bellman_value_gamma_form(upper, x),
            sw.bellman_value(lower, x),
            sw.bellman_value_gamma_form(lower, x),
            sw.bellman_infinity_value(p, delta, x),
            *sw.r_pair(p, delta, x),
            plus.c, plus.a, plus.nu,
            minus.c, minus.a, minus.nu,
            nd.y, nd.epsilon, nd.constant,
        ))
    return rows


TABLE_FIELDS = (
    "q_star", "q_sub", "t_star", "c_q", "c_inf", "c_t",
    "bellman_upper", "gamma_upper", "bellman_lower", "gamma_lower", "bellman_inf",
    "r_minus", "r_plus",
    "plus_c", "plus_a", "plus_nu", "minus_c", "minus_a", "minus_nu",
    "nd_y", "nd_epsilon", "nd_c_q",
)


def certificate_op(sw, d, depth=inputs.DEPTH):
    """Extremal weights, the four constants and the four grid suprema."""
    p, delta = d.p, d.delta
    x = (1.0, delta**p)
    plus = sw.extremal_weight(p, delta, x, "plus")
    minus = sw.extremal_weight(p, delta, x, "minus")
    top = sw.extremal_weight(math.inf, delta, (1.0, delta), "plus")
    kinds = sw.FunctionalKind
    return (
        sw.aq_constant(p, d.q, delta).constant,
        sw.ainf_constant(p, delta).constant,
        sw.rht_constant(p, d.t, delta).constant,
        sw.rhinf_norm_closed(top),
        plus.c, plus.a, plus.nu,
        minus.c, minus.a, minus.nu,
        top.c, top.a, top.nu,
        sw.sup_ratio_search(plus, kinds.aq(d.q), depth)[0],
        sw.sup_ratio_search(plus, kinds.a_inf(), depth)[0],
        sw.sup_ratio_search(minus, kinds.rh_p(d.t), depth)[0],
        sw.sup_ratio_search(top, kinds.rh_inf(), depth)[0],
    )


CERTIFICATE_FIELDS = (
    "c_q", "c_inf", "c_t", "rhinf_norm",
    "plus_c", "plus_a", "plus_nu", "minus_c", "minus_a", "minus_nu",
    "top_c", "top_a", "top_nu",
    "sup_aq", "sup_ainf", "sup_rhp", "sup_rhinf",
)


class CliFailure(Exception):
    pass


def cli_process(argv, traced_spans: Path | None = None):
    """One CLI process; returns (stdout, stderr).  Nonzero exit raises."""
    if traced_spans is None:
        cmd = [sys.executable, "-m", "sharpweights.cli", *argv]
    else:
        cmd = [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"),
               str(traced_spans), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise CliFailure(f"exit {proc.returncode}: {' '.join(argv)}\n{proc.stderr[-2000:]}")
    return proc.stdout, proc.stderr


class Workload:
    """Inputs plus the function that runs one operation on them."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.ops = inputs.build(name, seed)
        self.sw = None if name == "cli_light" else import_package()

    def run(self, i: int):
        op = self.ops[i]
        if self.name == "cli_light":
            return cli_process(op[1])[0]
        if self.name == "verify_certificate":
            return certificate_op(self.sw, op)
        return table_op(self.sw, op)

    def warmup(self) -> None:
        """One small call into each layer the workload times."""
        if self.name == "cli_light":
            from sharpweights import cli

            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                for _, argv, _ in self.ops[: len(inputs.CLI_SUBCOMMANDS)]:
                    cli.main(argv)
        elif self.name == "verify_certificate":
            certificate_op(self.sw, self.ops[0], depth=4)
        else:
            table_op(self.sw, self.ops[0][:1])

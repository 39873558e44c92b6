"""End-to-end checks of the command line front end.

Everything drives cli.main in process; one test exercises the
installed console script through a real subprocess.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sharpweights import cli, embedding


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_plain(line):
    out = {}
    for token in line.strip().split():
        key, _, val = token.partition("=")
        out[key] = val
    return out


def test_constants_plain(capsys):
    code, out, err = run_cli(
        ["constants", "--p", "2", "--q", "10", "--delta", "2"], capsys
    )
    assert code == 0
    assert err == ""
    rec = parse_plain(out)
    assert float(rec["q_star"]) == pytest.approx(7.4641016151377545871, rel=1e-9)
    assert float(rec["c_q"]) == pytest.approx(11967.912848418276852, rel=1e-9)
    assert float(rec["c_inf"]) == pytest.approx(85.969840050095824801, rel=1e-9)


def test_constants_infinite_value_token(capsys):
    # q inside the critical band: c_q degenerates
    code, out, _ = run_cli(
        ["constants", "--p", "2", "--q", "5", "--delta", "2"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert rec["c_q"] == "inf"
    assert math.isinf(float(rec["c_q"]))


def test_constants_json_types(capsys):
    code, out, _ = run_cli(
        ["constants", "--p", "2", "--q", "5", "--delta", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["c_q"] == "inf"
    assert isinstance(obj["q_star"], float)
    assert obj["q_star"] == pytest.approx(7.4641016151377545871, rel=1e-9)


def test_constants_plain_roundtrips_exactly(capsys):
    # .17g is enough digits to reproduce the double bit for bit
    code, out, _ = run_cli(
        ["constants", "--p", "2", "--q", "10", "--delta", "2"], capsys
    )
    rec = parse_plain(out)
    assert float(rec["c_q"]) == embedding.aq_constant(2.0, 10.0, 2.0).constant


def test_constants_accepts_inf_exponent(capsys):
    code, out, _ = run_cli(
        ["constants", "--p", "inf", "--q", "3", "--delta", "2"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert float(rec["q_star"]) == 2.0
    assert float(rec["c_q"]) == 2.0
    assert float(rec["c_inf"]) == pytest.approx(1.3591409142295226177, rel=1e-12)


def test_gehring_csv_header(capsys):
    code, out, _ = run_cli(
        ["gehring", "--p", "2", "--t", "2", "--delta", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,t,delta,t_star,c_t"
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["t_star"]) == pytest.approx(2.154700538379251529, rel=1e-10)
    assert float(row["c_t"]) == pytest.approx(2.0, rel=1e-9)


def test_gehring_large_p_log_delta(capsys):
    code, out, _ = run_cli(["gehring", "--p", "100", "--t", "100", "--delta", "1000"], capsys)
    assert code == 0
    assert parse_plain(out)["c_t"] == "1000"


def test_bellman_record(capsys):
    code, out, _ = run_cli(
        ["bellman", "--p", "2", "--q", "10", "--delta", "2",
         "--x1", "1", "--x2", "4", "--limit"],
        capsys,
    )
    assert code == 0
    rec = parse_plain(out)
    # (1, 4) sits on the upper boundary curve, where both roots vanish
    assert float(rec["r_minus"]) == 0.0
    assert float(rec["r_plus"]) == 0.0
    assert float(rec["value"]) == pytest.approx(2.838658558458713017, rel=1e-10)
    assert float(rec["limit_value"]) == pytest.approx(85.969840050095824801, rel=1e-10)


def test_bellman_limit_overflow_prints_inf(capsys):
    code, out, _ = run_cli(
        ["bellman", "--p", "inf", "--q", "3", "--delta", "1000",
         "--x1", "1", "--x2", "1000", "--limit"],
        capsys,
    )
    assert code == 0
    assert parse_plain(out)["limit_value"] == "inf"


def test_constants_near_p_one(capsys):
    # q_star is about 1.6495e18, past any doubling budget from 2
    code, out, _ = run_cli(
        ["constants", "--p", "1.01", "--q", "1e20", "--delta", "1.5"], capsys
    )
    assert code == 0
    assert float(parse_plain(out)["q_star"]) == pytest.approx(1.6495084432553664e18, rel=1e-10)


def test_bellman_without_limit_flag(capsys):
    code, out, _ = run_cli(
        ["bellman", "--p", "2", "--q", "10", "--delta", "2",
         "--x1", "1", "--x2", "4"],
        capsys,
    )
    assert code == 0
    assert "limit_value" not in parse_plain(out)


def test_bellman_infinite_exponent_drops_root_columns(capsys):
    code, out, _ = run_cli(
        ["bellman", "--p", "inf", "--q", "3", "--delta", "2",
         "--x1", "1", "--x2", "1.5", "--limit"],
        capsys,
    )
    assert code == 0
    rec = parse_plain(out)
    assert "r_minus" not in rec and "r_plus" not in rec
    assert float(rec["value"]) == pytest.approx(1.3608276348795433879, rel=1e-10)
    assert float(rec["limit_value"]) == pytest.approx(1.2984893607031172378, rel=1e-10)


def test_extremal_residuals_vanish(capsys):
    code, out, _ = run_cli(
        ["extremal", "--p", "2", "--delta", "2", "--x1", "1", "--x2", "4"],
        capsys,
    )
    assert code == 0
    rec = parse_plain(out)
    assert rec["branch"] == "plus"
    assert float(rec["nu"]) == pytest.approx(6.4641016151377545871, rel=1e-10)
    assert float(rec["c"]) == pytest.approx(7.4641016151377545871, rel=1e-10)
    for key in ("resid_x1", "resid_x2", "resid_delta"):
        assert abs(float(rec[key])) < 1e-9


def test_extremal_next_to_the_right_branch_endpoint(capsys):
    # the command reports a weight it cannot carry as a domain error naming
    # p and delta, instead of printing a wrong one with exit 0: q_star passes
    # the float range at (1.001, 10), and at (1.01, 1000) nu = q_star - 1 =
    # 2.7e303 leaves a plateau 1 - a far below an ulp of 1
    for p, delta in (("1.001", "10"), ("1.01", "1000")):
        argv = ["extremal", "--p", p, "--delta", delta, "--x1", "1", "--x2", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the plus branch at p = {float(p)}, delta = {float(delta)}")


def test_extremal_minus_branch(capsys):
    code, out, _ = run_cli(
        ["extremal", "--p", "2", "--delta", "1.05", "--x1", "1", "--x2", "1.05",
         "--branch", "minus"],
        capsys,
    )
    assert code == 0
    rec = parse_plain(out)
    assert float(rec["nu"]) == pytest.approx(-0.23366402246522462993, rel=1e-9)
    for key in ("resid_x1", "resid_x2", "resid_delta"):
        assert abs(float(rec[key])) < 1e-9


@pytest.mark.parametrize("p, x1, x2", [
    # c**50 passes the float range though the moment is x2
    ("50", "963626.5138306188", "9.799308653125657e+307"),
    # c**300 is finite, and its product with the ramp term overflows
    ("300", "10.5", "1e307"),
])
def test_extremal_moment_near_the_float_range(p, x1, x2, capsys):
    code, out, _ = run_cli(["extremal", "--p", p, "--delta", "1.5", "--x1", x1, "--x2", x2], capsys)
    assert code == 0
    rec = parse_plain(out)
    assert abs(float(rec["resid_x2"])) <= 1e-9 * float(x2)


def test_extremal_infinite_exponent(capsys):
    # p = inf checks the sup and the RH_inf norm instead of the p-th moment
    code, out, _ = run_cli(
        ["extremal", "--p", "inf", "--delta", "3", "--x1", "1", "--x2", "1.5"],
        capsys,
    )
    assert code == 0
    rec = parse_plain(out)
    assert (rec["p"], rec["c"], rec["nu"]) == ("inf", "1.5", "2")
    for key in ("resid_x1", "resid_x2", "resid_delta"):
        assert abs(float(rec[key])) < 1e-12


def test_verify_moment_mode_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--p", "2", "--q", "10", "--delta", "2"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert rec["status"] == "ok"
    assert float(rec["rel_err"]) < 1e-6


def test_verify_infinite_exponent_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--p", "inf", "--q", "3", "--delta", "2"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert float(rec["constant"]) == 2.0
    assert float(rec["sup"]) == pytest.approx(2.0, rel=1e-12)


def test_verify_self_improvement_mode_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--p", "2", "--t", "2", "--delta", "2"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert float(rec["constant"]) == pytest.approx(2.0, rel=1e-9)


def test_verify_trivial_class_is_exact(capsys):
    code, out, _ = run_cli(
        ["verify", "--p", "2", "--q", "10", "--delta", "1"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert float(rec["constant"]) == 1.0
    assert float(rec["sup"]) == 1.0
    assert float(rec["rel_err"]) == 0.0


def test_verify_trivial_class_at_the_deepest_grid(capsys):
    # the oracle scores one corner pair at every depth, so 17 costs no more than 12
    code, out, _ = run_cli(
        ["verify", "--p", "2", "--q", "10", "--delta", "1", "--depth", "17"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert rec["status"] == "ok"
    assert (float(rec["sup"]), float(rec["argmax_beta"])) == (1.0, 2.0**-17)


def test_verify_band_compares_infinities(capsys):
    code, out, _ = run_cli(
        ["verify", "--p", "2", "--q", "5", "--delta", "2"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert rec["constant"] == "inf" and rec["sup"] == "inf"
    assert float(rec["rel_err"]) == 0.0


def test_verify_reports_mismatch_under_tiny_tolerance(capsys):
    # the depth-12 search agrees with the constant to rounding (about
    # 1e-14), so 1e-16 must trip
    code, out, _ = run_cli(
        ["verify", "--p", "2", "--q", "10", "--delta", "2", "--tol", "1e-16"],
        capsys,
    )
    assert code == 1
    rec = parse_plain(out)
    assert rec["status"] == "mismatch"
    assert 0.0 < float(rec["rel_err"]) < 1e-6


@pytest.mark.parametrize(
    "flag, value", [("--depth", "70"), ("--depth", "0"), ("--tol", "nan"), ("--tol", "-1")]
)
def test_verify_refuses_out_of_range_depth_and_tol(flag, value, capsys):
    # a usage error (exit 2), not a mismatch (exit 1) or a crash
    code, out, err = run_cli(
        ["verify", "--p", "2", "--q", "10", "--delta", "2", flag, value], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert flag.lstrip("-") in err


def test_verify_needs_exactly_one_mode(capsys):
    code, out, err = run_cli(
        ["verify", "--p", "2", "--q", "10", "--t", "2", "--delta", "2"], capsys
    )
    assert code == 2
    assert err.startswith("error:")
    code, out, err = run_cli(["verify", "--p", "2", "--delta", "2"], capsys)
    assert code == 2


def test_verify_upper_point_past_the_float_range(capsys):
    # 1000**120 overflows: a domain error (exit 2), not a mismatch (exit 1)
    code, out, err = run_cli(
        ["verify", "--p", "120", "--t", "120", "--delta", "1000"], capsys
    )
    assert code == 2
    assert err.startswith("error:")
    assert "p = 120" in err and "delta = 1000" in err
    # delta**p = 1.02e308 is finite, but p*s_minus is not
    code, out, err = run_cli(
        ["verify", "--p", "1000", "--t", "1000", "--delta", "2.0324"], capsys
    )
    assert code == 2
    assert err.startswith("error: the minus branch at p = 1000")


def test_ndim_record(capsys):
    code, out, _ = run_cli(
        ["ndim", "--p", "2", "--q", "3", "--n", "2", "--delta", "1.01"], capsys
    )
    assert code == 0
    rec = parse_plain(out)
    assert float(rec["threshold"]) == pytest.approx(1.154700538379251529, rel=1e-12)
    assert float(rec["epsilon"]) == pytest.approx(1.0964148132382675322, rel=1e-9)
    assert float(rec["c_q"]) == pytest.approx(1.3857727785133213342, rel=1e-9)


def test_sweep_delta_increases_moment_constant(capsys):
    code, out, _ = run_cli(
        ["sweep", "--param", "delta", "--from", "1.01", "--to", "2",
         "--steps", "7", "--p", "2", "--q", "10", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].count("c_q") == 1
    assert len(lines) == 8
    cols = lines[0].split(",")
    values = [float(dict(zip(cols, ln.split(",")))["c_q"]) for ln in lines[1:]]
    assert all(math.isfinite(v) for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_reaches_divergence(capsys):
    # past delta ~2.37 the moment exponent 10 falls inside the band
    code, out, _ = run_cli(
        ["sweep", "--param", "delta", "--from", "2", "--to", "3",
         "--steps", "5", "--p", "2", "--q", "10", "--format", "csv"],
        capsys,
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert "inf" in last


def test_sweep_q_decreases_constant(capsys):
    code, out, _ = run_cli(
        ["sweep", "--param", "q", "--from", "7.6", "--to", "20",
         "--steps", "6", "--p", "2", "--delta", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    cols = lines[0].split(",")
    values = [float(dict(zip(cols, ln.split(",")))["c_q"]) for ln in lines[1:]]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_sweep_t_increases_toward_blowup(capsys):
    code, out, _ = run_cli(
        ["sweep", "--param", "t", "--from", "2", "--to", "2.1",
         "--steps", "3", "--p", "2", "--delta", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,t,delta,t_star,c_t"
    values = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert all(math.isfinite(v) for v in values)
    assert values[0] < values[1] < values[2]


def test_sweep_ndim_limits_to_one(capsys):
    code, out, _ = run_cli(
        ["sweep", "--param", "delta", "--from", "1.01", "--to", "1",
         "--steps", "3", "--p", "2", "--q", "3", "--n", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,n,delta,threshold,y,epsilon,c_q"
    last = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert float(last["delta"]) == 1.0
    assert float(last["c_q"]) == 1.0
    assert float(last["y"]) == 1.0


def test_sweep_missing_fixed_parameter(capsys):
    code, out, err = run_cli(
        ["sweep", "--param", "delta", "--from", "1.1", "--to", "2",
         "--steps", "3", "--p", "2"],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_sweep_keeps_rows_printed_before_a_failing_point(capsys):
    code, out, err = run_cli(
        ["sweep", "--param", "delta", "--from", "2", "--to", "0.5",
         "--steps", "3", "--p", "2", "--q", "10", "--format", "csv"],
        capsys,
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "p,q,delta,q_star,c_q,c_inf"
    assert [ln.split(",")[2] for ln in lines[1:]] == ["2", "1.25"]
    assert err.startswith("error: class constant delta") and "0.5" in err


def test_sweep_needs_two_steps(capsys):
    code, out, err = run_cli(
        ["sweep", "--param", "delta", "--from", "1.1", "--to", "2",
         "--steps", "1", "--p", "2", "--q", "10"],
        capsys,
    )
    assert code == 2
    assert "--steps" in err


@pytest.mark.parametrize("start, stop", [("inf", "2"), ("1.1", "nan")])
def test_sweep_endpoints_must_be_finite(start, stop, capsys):
    code, out, err = run_cli(
        ["sweep", "--param", "delta", "--from", start, "--to", stop,
         "--steps", "3", "--p", "2", "--q", "10"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: sweep endpoints must be finite, got from = {float(start)}, to = {float(stop)}\n"
    )


def test_domain_error_exits_two(capsys):
    code, out, err = run_cli(
        ["constants", "--p", "2", "--q", "10", "--delta", "0.5"], capsys
    )
    assert code == 2
    assert err.startswith("error:")
    assert "delta" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["constants", "--p", "2", "--q", "inf", "--delta", "2"], "q"),
        (["bellman", "--p", "400", "--q", "3", "--delta", "2", "--x1", "10", "--x2", "inf"], "x2"),
        (["extremal", "--p", "331.46274704812816", "--delta", "1.0020927486879054",
          "--x1", "17577.096413266456", "--x2", "inf"], "x2"),
    ],
)
def test_infinite_inputs_exit_two(argv, name, capsys):
    # a non-finite q or coordinate is a domain error, never a value or a crash
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and re.search(rf"\b{name}\b", err), err


@pytest.mark.parametrize("exc_type", [RuntimeError, ValueError])
def test_internal_error_exits_three(exc_type, monkeypatch, capsys):
    # a crash is neither a mismatch (1) nor a usage error (2); a ValueError
    # that is not a DomainError is a crash
    def broken(*args):
        raise exc_type("solver broke")

    monkeypatch.setattr(cli.embedding, "aq_constant", broken)
    code, out, err = run_cli(["constants", "--p", "2", "--q", "10", "--delta", "2"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("Traceback")
    assert err.endswith(f"{exc_type.__name__}: solver broke\n")


def test_argparse_rejects_bad_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--p", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--p", "two", "--q", "10", "--delta", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


# the required flags of each subcommand, in their declared order
REQUIRED = {
    "constants": ["--p", "2", "--q", "10", "--delta", "2"],
    "gehring": ["--p", "2", "--t", "2", "--delta", "2"],
    "bellman": ["--p", "2", "--q", "10", "--delta", "2", "--x1", "1", "--x2", "4"],
    "extremal": ["--p", "2", "--delta", "2", "--x1", "1", "--x2", "4"],
    "verify": ["--p", "2", "--delta", "2"],
    "ndim": ["--p", "2", "--q", "3", "--n", "2", "--delta", "1.01"],
    "sweep": ["--param", "delta", "--from", "1", "--to", "2", "--steps", "3"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_parser_requires_each_required_flag(command, capsys):
    parser = cli.build_parser()
    flags = REQUIRED[command]
    args = parser.parse_args([command, *flags])
    assert (args.command, args.format) == (command, "plain")
    for i in range(0, len(flags), 2):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, *flags[:i], *flags[i + 2:]])
        assert exc.value.code == 2
        assert f"the following arguments are required: {flags[i]}" in capsys.readouterr().err


def test_parser_defaults():
    parse = cli.build_parser().parse_args
    args = parse(["verify", *REQUIRED["verify"]])
    assert (args.q, args.t, args.depth, args.tol) == (None, None, 12, 1e-6)
    assert parse(["extremal", *REQUIRED["extremal"]]).branch == "plus"
    assert parse(["bellman", *REQUIRED["bellman"]]).limit is False
    assert parse(["ndim", *REQUIRED["ndim"]]).n == 2
    args = parse(["sweep", *REQUIRED["sweep"]])
    assert (args.param, args.start, args.stop, args.steps) == ("delta", 1.0, 2.0, 3)
    assert [args.p, args.q, args.t, args.n, args.delta] == [None] * 5


def test_module_entry_point_exit_codes():
    # `python -m sharpweights.cli`, from the source tree these tests import
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "sharpweights.cli", *argv],
                              capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    code, out, err = run("constants", "--p", "2", "--q", "10", "--delta", "2")
    assert (code, err) == (0, "")
    assert out.startswith("p=2 q=10 delta=2 q_star=7.46410161513775")
    code, out, _ = run("verify", "--p", "2", "--q", "10", "--delta", "2", "--tol", "1e-16")
    assert code == 1
    assert parse_plain(out)["status"] == "mismatch"
    code, out, err = run("constants", "--p", "2", "--q", "10", "--delta", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "delta" in err


@pytest.mark.skipif(shutil.which("sharp-weights") is None, reason="script not installed")
def test_console_script_runs():
    proc = subprocess.run(
        ["sharp-weights", "constants", "--p", "2", "--q", "10", "--delta", "2",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["q_star"] == pytest.approx(7.4641016151377545871, rel=1e-9)

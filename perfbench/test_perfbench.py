"""Tests of the benchmark itself: its estimator, its checks and its tracer.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics

import pytest

import checks
import inputs
import stats
import tracing
import workloads

PERTURB = 1e-6


def _bump(x: float, rel: float) -> float:
    return x * (1.0 + rel)


# -- estimator ------------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = stats.tail([float(v) for v in range(40, 0, -1)])
    assert (value, pct) == (30.0, 75.0)
    value, pct = stats.tail([float(v) for v in range(1, 43)])
    assert value == 32.0 and pct == pytest.approx(100 * 32 / 42)


def test_every_workload_has_forty_operations():
    assert all(n >= stats.MIN_OPS for n in inputs.N_OPS.values())
    with pytest.raises(ValueError):
        stats.summarize([1.0] * stats.TAIL_BEYOND)
    s = stats.summarize([0.5] * 20 + [1.5] * 20)
    assert s["ops_per_s"] == pytest.approx(1.0)
    assert s["latency_p50_ms"] == pytest.approx(1000.0)
    assert s["latency_tail_ms"] == pytest.approx(1500.0)


def test_pass_count_does_not_depend_on_program_speed():
    assert stats.passes(20, 42 * 0.22, 3) == 3
    assert stats.passes(20, 40 * 0.105, 3) == 5
    assert stats.passes(20, 40 * 1.1, 1) == 1
    assert sorted(stats.probe_points(40, 5)) == [0, 8, 16, 24, 32]


def _synthetic_runs(fast_share: float, seed: int = 7, runs: int = 10, passes: int = 5,
                    n: int = 40):
    """Per-pass times of n operations of true cost 1.0 on a host whose speed
    changes every few operations: fast (1.0) with probability fast_share,
    else normal (1.7x), or now and then stalled (3x).  The share of fast
    time itself wanders from run to run by +-50%."""
    rng = random.Random(seed)
    out = []
    for _ in range(runs):
        share = fast_share * rng.uniform(0.5, 1.5)
        times = [[] for _ in range(n)]
        factor = 1.7
        for _ in range(passes):
            for i in range(n):
                if rng.random() < 0.3:  # a phase change
                    u = rng.random()
                    factor = 1.0 if u < share else (3.0 if u > 0.97 else 1.7)
                times[i].append(factor * rng.uniform(1.0, 1.02))
        out.append(times)
    return out


def _p50_spread(estimate, runs):
    return stats.spread([stats.summarize([estimate(t) for t in times])["latency_p50_ms"]
                         for times in runs])


def test_upper_quartile_of_passes():
    assert stats.per_op([5.0, 1.0, 4.0, 2.0, 3.0]) == 4.0
    assert stats.per_op([3.0, 1.0, 2.0]) == 2.5
    assert stats.per_op([7.0]) == 7.0


@pytest.mark.parametrize("fast_share", [0.05, 0.1, 0.3, 0.5])
def test_upper_quartile_is_steady_while_the_host_is_mostly_slow(fast_share):
    assert _p50_spread(stats.per_op, _synthetic_runs(fast_share)) < 0.02


@pytest.mark.parametrize("estimate, fast_share", [
    (min, 0.1), (statistics.median, 0.5), (stats.per_op, 0.7)])
def test_an_order_statistic_flips_where_the_fast_share_matches_it(estimate, fast_share):
    assert _p50_spread(estimate, _synthetic_runs(fast_share)) > 0.3


def test_the_mean_of_passes_follows_the_fast_share():
    assert _p50_spread(statistics.fmean, _synthetic_runs(0.3)) > 0.05


# -- checks fail on a perturbed result ------------------------------------------


@pytest.fixture(scope="module")
def sw():
    return workloads.import_package()


def _must_fail(workload, op, out):
    with pytest.raises(checks.Mismatch):
        checks.check(workload, op, out, {})


def test_table_checks_catch_each_perturbed_field(sw):
    op = inputs.table_inputs(3)[0][7:10]  # includes a p = 2 draw
    assert any(d.p == 2.0 for d in op)
    rows = workloads.table_op(sw, op)
    checks.check("constants_table", op, rows, {})
    for k in range(len(rows)):
        for j, field in enumerate(workloads.TABLE_FIELDS):
            for rel in (PERTURB, -PERTURB):
                bad = list(rows)
                row = list(bad[k])
                row[j] = _bump(row[j], rel)
                bad[k] = tuple(row)
                _must_fail("constants_table", op, bad)


def test_a_recurring_table_draw_must_repeat_its_row(sw):
    op = inputs.table_inputs(3)[0][:2]
    rows = workloads.table_op(sw, op)
    seen = {}
    checks.check("constants_table", op, rows, seen)
    row = list(rows[1])
    row[0] = _bump(row[0], PERTURB)
    with pytest.raises(checks.Mismatch):
        checks.check("constants_table", op, [rows[0], tuple(row)], seen)


@pytest.mark.parametrize("delta_one", [False, True])
def test_certificate_checks_catch_each_perturbed_field(sw, delta_one):
    ops = inputs.certificate_inputs(3)
    d = ops[7] if delta_one else ops[0]
    assert (d.delta == 1.0) == delta_one
    out = workloads.certificate_op(sw, d)
    checks.check("verify_certificate", d, out, {})
    for j, field in enumerate(workloads.CERTIFICATE_FIELDS):
        # a supremum may sit up to SUP_RTOL below its constant, never above
        rels = (PERTURB,) if field.startswith("sup_") else (PERTURB, -PERTURB)
        if delta_one and field in ("plus_a", "minus_a", "top_a", "plus_nu", "minus_nu", "top_nu"):
            continue  # a constant weight: a and nu = 0 do not change it
        for rel in rels:
            bad = list(out)
            bad[j] = _bump(bad[j], rel)
            _must_fail("verify_certificate", d, tuple(bad))


def _cli_stdout(argv):
    from sharpweights import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_cli_checks_catch_each_perturbed_value(sw):
    ops = inputs.cli_inputs(3)[:12]  # each subcommand in both variants
    for op in ops:
        stdout = _cli_stdout(op[1])
        checks.check("cli_light", op, stdout, {})
        records = checks.parse_plain(stdout)
        for r, rec in enumerate(records):
            for key, text in rec.items():
                if key in ("branch", "n", "resid_x1", "resid_x2", "resid_delta"):
                    continue  # labels, and residuals that are zero by design
                for rel in (PERTURB, -PERTURB):
                    bad = [dict(x) for x in records]
                    bad[r][key] = repr(_bump(float(text), rel))
                    lines = [" ".join(f"{k}={v}" for k, v in b.items()) for b in bad]
                    _must_fail("cli_light", op, "\n".join(lines) + "\n")


def test_cli_residual_check_rejects_a_large_residual(sw):
    op = inputs.cli_inputs(3)[3]
    assert op[0] == "extremal"
    records = checks.parse_plain(_cli_stdout(op[1]))
    records[0]["resid_x1"] = "1e-6"
    lines = [" ".join(f"{k}={v}" for k, v in rec.items()) for rec in records]
    _must_fail("cli_light", op, "\n".join(lines) + "\n")


# -- tracer ---------------------------------------------------------------------


def test_tracer_records_layers_and_restores_the_program(sw):
    from sharpweights import roots, weights

    originals = (roots.bisect_root, weights.max_pair_ratio, sw.q_star)
    tracer = tracing.Tracer()
    d = inputs.certificate_inputs(3)[0]
    with tracing.installed(tracer):
        traced = workloads.certificate_op(sw, d, depth=5)
    assert traced == workloads.certificate_op(sw, d, depth=5)
    assert (roots.bisect_root, weights.max_pair_ratio, sw.q_star) == originals
    names = {s[1] for s in tracer.spans}
    assert {"weights.search", "kernels.scan", "roots.q_star", "roots.bisect_root"} <= names
    for _, name, tag, parent, _, dur, self_ns in tracer.spans:
        assert 0 <= self_ns <= dur
        if name == "kernels.scan":
            assert tracer.spans[parent][1] == "weights.search"
    samples = tracing.samples_from_spans(tracer.spans, {})
    assert statistics.fmean(samples["roots.evals_per_solve"]) > 1
    assert {f"kernels.scan_ms.{m}" for m in ("moment", "exponential", "sup")} <= set(samples)


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_file_names_what_the_runs_report():
    import json

    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END

"""Benchmark of sharpweights: one workload per run, every output checked.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
Details of each run go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import checks
import inputs
import stats
import tracing
import workloads
from workloads import BENCH, ROOT

OUT = BENCH / "out"

# name -> (nominal seconds of one pass over the operations, minimum passes)
WORKLOADS = {
    "cli_light": (42 * 0.22, 3),
    "verify_certificate": (40 * 1.1, 1),
    "constants_table": (40 * 0.105, 3),
}
END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "setup_s": "s"}
SETUP_PROBES = 9
TRACE_IMPORT_PROBES = 3
OVERHEAD_EVERY = 5  # in a traced run, every fifth operation also runs untraced
SETUP_TIMEOUT_S = 120


def setup_probe(workload: str, seed: int, importtime: bool = False) -> tuple[float, str]:
    """Wall time of a fresh interpreter that sets the workload up."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(), capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


class Run:
    """Outputs, failures and timings of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.outs = [None] * len(wl.ops)
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []

    def execute(self, i: int, fn):
        """Run operation i through ``fn``; returns its time or None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"op {i}: {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        if self.outs[i] is None:
            self.outs[i] = out
        elif out != self.outs[i]:
            self.mismatches.append(f"op {i}: output differs between executions")
        return elapsed

    def check(self) -> None:
        seen: dict = {}
        for i, out in enumerate(self.outs):
            if out is not None:
                try:
                    checks.check(self.wl.name, self.wl.ops[i], out, seen)
                except checks.Mismatch as exc:
                    self.mismatches.append(f"op {i}: {exc}")


def measure(wl, seconds: float) -> tuple[Run, dict, dict]:
    nominal, min_passes = WORKLOADS[wl.name]
    n_pass = stats.passes(seconds, nominal, min_passes)
    n = len(wl.ops)
    probes_before = stats.probe_points(n_pass * n, SETUP_PROBES)
    run = Run(wl)
    times: list[list[float]] = [[] for _ in range(n)]
    setups = []
    k = 0
    for _ in range(n_pass):
        for i in range(n):
            if k in probes_before:
                setups.append(setup_probe(wl.name, wl.seed)[0])
            k += 1
            elapsed = run.execute(i, wl.run)
            if elapsed is not None:
                times[i].append(elapsed)
    summary = stats.summarize([stats.per_op(t) for t in times if t])
    summary["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail = {"passes": n_pass, "tail_percentile": summary["tail_percentile"],
              "times_s": times, "setup_s": setups}
    return run, metrics, detail


def _traced_leg(wl, tracer, i, samples):
    """Run operation i with spans recorded; returns the function for Run."""
    def leg(_):
        tracer.op = f"{wl.name}:{i}"
        if wl.name == "cli_light":
            sub, argv, _ = wl.ops[i]
            path = OUT / "child-spans.jsonl"
            start = time.perf_counter()
            stdout, stderr = workloads.cli_process(argv, traced_spans=path)
            samples.setdefault(f"cli.process_ms.{sub}", []).append(
                (time.perf_counter() - start) * 1e3)
            tracing.import_samples(stderr, samples)
            base = len(tracer.spans)
            for _, name, tag, parent, start_ns, dur, self_ns in tracing.read_spans(path):
                tracer.spans.append((tracer.op, name, tag, parent + base if parent >= 0 else -1,
                                     start_ns, dur, self_ns))
            tracing.samples_from_spans(tracer.spans[base:], samples)
            path.unlink()
            return stdout
        base = len(tracer.spans)
        with tracing.installed(tracer):
            out = wl.run(i)
        tracing.samples_from_spans(tracer.spans[base:], samples)
        return out

    return leg


def measure_traced(wl, seed: int) -> tuple[list[Run], dict, dict]:
    """One traced pass over the workload, then one traced pass over the
    first operations of the other workloads for layers this one misses."""
    tracer = tracing.Tracer()
    own: dict = {}
    coverage: dict = {}
    runs = []
    ratios = []
    for name in [wl.name] + [w for w in WORKLOADS if w != wl.name]:
        target = wl if name == wl.name else workloads.Workload(name, seed)
        if target is not wl and target.sw is not None:
            target.warmup()
        samples = own if target is wl else coverage
        run = Run(target)
        # coverage: one process per CLI subcommand, or one operation
        count = len(target.ops) if target is wl else (
            len(inputs.CLI_SUBCOMMANDS) if name == "cli_light" else 1)
        for i in range(count):
            plain = None
            if target is wl and i % OVERHEAD_EVERY == 0:
                plain = run.execute(i, target.run)
            traced = run.execute(i, _traced_leg(target, tracer, i, samples))
            if plain and traced:
                ratios.append(traced / plain)
        runs.append(run)
    for _ in range(TRACE_IMPORT_PROBES):
        tracing.import_samples(setup_probe(wl.name, seed, importtime=True)[1], own)
    metrics = tracing.per_layer(own, coverage)
    spans_path = OUT / f"spans-{wl.name}.jsonl"
    tracing.write_spans(tracer.spans, spans_path)
    detail = {"trace_overhead": statistics.median(ratios) - 1.0 if ratios else None,
              "overhead_ratios": ratios, "spans": str(spans_path.relative_to(ROOT)),
              "span_count": len(tracer.spans)}
    return runs, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sharpweights" / "__init__.py").is_file():
        print(f"error: no sharpweights package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    wl = workloads.Workload(args.workload, args.seed)
    # untimed: compile bytecode and fill caches in a child and in this process
    setup_probe(wl.name, wl.seed)
    if wl.sw is not None:
        wl.warmup()
    if args.trace:
        runs, metrics, detail = measure_traced(wl, args.seed)
    else:
        run, metrics, detail = measure(wl, args.seconds)
        runs = [run]
    for run in runs:
        run.check()
    result = {
        "correct": not any(r.mismatches for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(len(r.failures) for r in runs),
        "metrics": metrics,
    }
    detail.update(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  wall_s=time.perf_counter() - started,
                  failures=[f for r in runs for f in r.failures],
                  mismatches=[m for r in runs for m in r.mismatches], result=result)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))
    for line in detail["failures"] + detail["mismatches"]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans recorded from outside the program.

``installed(tracer)`` replaces public functions of each layer (module
attributes such as ``weights.max_pair_ratio`` and ``roots.bisect_root``)
with wrappers that record a span per call, in every loaded sharpweights
module that holds a reference to them, and puts the originals back on
exit.  Spans stay in memory as tuples

    (op, name, tag, parent, start_ns, duration_ns, self_ns)

where ``parent`` is the index of the enclosing span (-1 for none), the self
time excludes enclosed spans, and ``tag`` is the functional kind of a
search, ``(mode, pairs)`` of a pair scan, or the function evaluations of a
root solve.  ``per_layer`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from time import perf_counter_ns

import inputs

# (module, attribute, span name)
LAYERS = (
    ("sharpweights.domain", "classify_point", "domain.classify_point"),
    ("sharpweights.roots", "q_star", "roots.q_star"),
    ("sharpweights.roots", "q_sub", "roots.q_sub"),
    ("sharpweights.roots", "t_star", "roots.t_star"),
    # u_plus/u_minus delegate here; every library caller goes through these
    ("sharpweights.roots", "u_plus_from_log", "roots.u_plus"),
    ("sharpweights.roots", "u_minus_from_log", "roots.u_minus"),
    ("sharpweights.roots", "r_pair", "roots.r_pair"),
    ("sharpweights.roots", "bisect_root", "roots.bisect_root"),
    ("sharpweights.embedding", "aq_constant", "embedding.aq_constant"),
    ("sharpweights.embedding", "ainf_constant", "embedding.ainf_constant"),
    ("sharpweights.embedding", "rht_constant", "embedding.rht_constant"),
    ("sharpweights.bellman", "bellman_value", "bellman.bellman_value"),
    ("sharpweights.bellman", "bellman_value_gamma_form", "bellman.gamma_form"),
    ("sharpweights.bellman", "bellman_infinity_value", "bellman.infinity_value"),
    ("sharpweights.weights", "extremal_weight", "weights.extremal_weight"),
    ("sharpweights.weights", "sup_ratio_search", "weights.search"),
    ("sharpweights.weights", "max_pair_ratio", "kernels.scan"),
    ("sharpweights.ndim", "ndim_aq_bound", "ndim.ndim_aq_bound"),
    ("sharpweights.ndim", "ratio_bound_y", "ndim.ratio_bound_y"),
    ("sharpweights.cli", "main", "cli.main"),
)

SCAN_MODES = {0: "moment", 1: "exponential", 2: "sup"}
KINDS = ("aq", "ainf", "rhp", "rhinf")

# name -> (unit, better); the per-layer metrics every traced run reports
PER_LAYER = {
    "import.package_ms": ("ms", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    **{f"cli.process_ms.{s}": ("ms", "lower") for s in inputs.CLI_SUBCOMMANDS},
    "cli.main_self_ms": ("ms", "lower"),
    **{f"roots.{f}_us": ("us", "lower")
       for f in ("q_star", "q_sub", "t_star", "u_plus", "u_minus", "r_pair")},
    "roots.evals_per_solve": ("count", "lower"),
    "domain.classify_point_us": ("us", "lower"),
    **{f"embedding.{f}_us": ("us", "lower") for f in ("aq_constant", "ainf_constant", "rht_constant")},
    **{f"bellman.{f}_us": ("us", "lower") for f in ("bellman_value", "gamma_form", "infinity_value")},
    "weights.extremal_weight_us": ("us", "lower"),
    **{f"ndim.{f}_us": ("us", "lower") for f in ("ndim_aq_bound", "ratio_bound_y")},
    **{f"weights.search_ms.{k}": ("ms", "lower") for k in KINDS},
    "weights.search_self_ms": ("ms", "lower"),
    **{f"kernels.scan_ms.{m}": ("ms", "lower") for m in SCAN_MODES.values()},
    "kernels.pairs_per_s": ("1/s", "higher"),
}


class Tracer:
    """Span store for one process; ``op`` labels the spans of the current
    operation."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: object = None
        self._stack: list[int] = []
        self._child_ns: list[int] = []

    def call(self, name, tag, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        self._child_ns.append(0)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - start
            self._stack.pop()
            inner = self._child_ns.pop()
            if self._child_ns:
                self._child_ns[-1] += dur
            if isinstance(tag, list):  # evaluation counter of a root solve
                tag = tag[0]
            self.spans[idx] = (self.op, name, tag, parent, start, dur, dur - inner)


def _wrapper(tracer: Tracer, name: str, fn):
    if name == "roots.bisect_root":

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)

            return tracer.call(name, evals, fn, (counted, *args), kwargs)

    elif name == "weights.search":

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, args[1].name, fn, args, kwargs)

    elif name == "kernels.scan":

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = len(args[0])
            tag = (SCAN_MODES[args[6]], n * (n - 1) // 2)
            return tracer.call(name, tag, fn, args, kwargs)

    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, None, fn, args, kwargs)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "sharpweights" or n.startswith("sharpweights."))]
    replaced = []
    for mod_name, attr, name in LAYERS:
        home = sys.modules.get(mod_name)
        if home is None:
            continue
        orig = getattr(home, attr)
        wrapped = _wrapper(tracer, name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    replaced.append((mod, key, orig))
    try:
        yield tracer
    finally:
        for mod, key, orig in reversed(replaced):
            setattr(mod, key, orig)


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def read_spans(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


# -- per-layer metrics ----------------------------------------------------------

# layers reported as the median time per call
_PER_CALL_US = {name for _, _, name in LAYERS} - {
    "roots.bisect_root", "weights.search", "kernels.scan", "cli.main"}


def samples_from_spans(spans, out: dict) -> dict:
    """Append each span's contribution to the per-layer sample lists."""
    for _, name, tag, _, _, dur, self_ns in spans:
        if name in _PER_CALL_US:
            out.setdefault(f"{name}_us", []).append(dur / 1e3)
        elif name == "roots.bisect_root":
            out.setdefault("roots.evals_per_solve", []).append(tag)
        elif name == "weights.search":
            out.setdefault(f"weights.search_ms.{tag}", []).append(dur / 1e6)
            out.setdefault("weights.search_self_ms", []).append(self_ns / 1e6)
        elif name == "kernels.scan":
            mode, pairs = tag
            out.setdefault(f"kernels.scan_ms.{mode}", []).append(dur / 1e6)
            out.setdefault("kernels.pairs_per_s", []).append((pairs, dur / 1e9))
        elif name == "cli.main":
            out.setdefault("cli.main_self_ms", []).append(self_ns / 1e6)
    return out


def import_samples(stderr: str, out: dict) -> dict:
    """Cumulative import times from ``python -X importtime`` output; numpy
    counts 0 when the process never imports it."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e3
    out.setdefault("import.package_ms", []).append(cumulative["sharpweights"])
    out.setdefault("import.numpy_ms", []).append(cumulative.get("numpy", 0.0))
    return out


def _value(name, samples):
    if name == "kernels.pairs_per_s":
        return sum(p for p, _ in samples) / sum(s for _, s in samples)
    if name == "roots.evals_per_solve":
        return statistics.fmean(samples)
    return statistics.median(samples)


def per_layer(own: dict, coverage: dict) -> dict:
    """Every per-layer metric, from the workload's own operations where they
    reach the layer, else from the coverage operations."""
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        samples = own.get(name) or coverage.get(name)
        if not samples:
            raise RuntimeError(f"no samples for per-layer metric {name}")
        metrics[name] = {"value": _value(name, samples), "unit": unit}
    return metrics

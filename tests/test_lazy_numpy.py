"""No command loads NumPy.

The supremum oracle scores one pair in closed form, so neither the scalar
API nor any CLI command, ``verify`` included, imports NumPy, and ``verify``
runs in an interpreter started without site-packages.  Nor do the commands
load ``dataclasses`` (the records are namedtuples) or ``json`` (only
``--format json`` needs it).  The import boundary is checked in a fresh
interpreter, since this test process has all three loaded already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from sharpweights import FunctionalKind, PowerWeight, weights

SRC = Path(__file__).resolve().parent.parent / "src"

SCALAR_COMMANDS = [
    ["constants", "--p", "2", "--q", "10", "--delta", "2"],
    ["gehring", "--p", "2", "--t", "2", "--delta", "2"],
    ["bellman", "--p", "2", "--q", "10", "--delta", "2", "--x1", "1", "--x2", "4", "--limit"],
    ["extremal", "--p", "2", "--delta", "2", "--x1", "1", "--x2", "2"],
    ["ndim", "--p", "2", "--q", "3", "--n", "2", "--delta", "1.01"],
    ["sweep", "--param", "q", "--from", "7.6", "--to", "10", "--steps", "4",
     "--p", "2", "--delta", "2"],
]
VERIFY = ["verify", "--p", "2", "--q", "10", "--delta", "2"]

# what `verify` prints: the corner pair's value, with the first grid pair as witness
# (sup=11967.912848418369 at argmax_beta=0.00244140625, rel_err 4.4e-15, as the
# maximum over row [0])
VERIFY_RECORD = (
    "p=2 q=10 delta=2 depth=12 constant=11967.912848418275 sup=11967.912848418262 "
    "argmax_alpha=0 argmax_beta=0.000244140625 rel_err=1.0639220042869736e-15 status=ok"
)

# delta = 1 admits only constant weights, decided without a scan; the
# line is what the scan printed
VERIFY_DELTA_ONE = ["verify", "--p", "2", "--q", "10", "--delta", "1"]
VERIFY_DELTA_ONE_RECORD = (
    "p=2 q=10 delta=1 depth=12 constant=1 sup=1 argmax_alpha=0 argmax_beta=0.000244140625 "
    "rel_err=0 status=ok"
)

SCRIPT = """
import json, sys
import sharpweights
from sharpweights import cli, weights

def loaded():
    return ["numpy"] if "numpy" in sys.modules else []

steps = [("import", loaded(), "max_pair_ratio" in vars(weights))]
for argv in json.loads(sys.argv[1]):
    steps.append((argv[0], cli.main(argv), loaded()))
print(json.dumps(steps))
"""


def run_fresh(commands):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    *printed, steps = proc.stdout.splitlines()
    return printed, json.loads(steps)


def test_no_command_loads_numpy():
    printed, steps = run_fresh(SCALAR_COMMANDS + [VERIFY])
    # the oracle's module attribute exists at import, so a tracer that looks in
    # vars(weights) can wrap it
    assert steps[0] == ["import", [], True]
    for argv, (name, code, mods) in zip(SCALAR_COMMANDS + [VERIFY], steps[1:]):
        assert (name, code, mods) == (argv[0], 0, []), argv
    assert printed[-1] == VERIFY_RECORD


def test_verify_runs_without_site_packages():
    # python -S leaves site-packages, and with it NumPy, off sys.path
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "sharpweights.cli", *VERIFY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [VERIFY_RECORD]


def test_the_package_imports_without_typing():
    # typing pulls re and enum into every process; the package needs neither
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, sharpweights; print('typing' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert proc.stdout.split() == ["False"]


def test_verify_at_delta_one_loads_no_numpy():
    printed, steps = run_fresh([VERIFY_DELTA_ONE])
    assert steps[1] == ["verify", 0, []]
    assert printed == [VERIFY_DELTA_ONE_RECORD]


def test_a_wrapped_scan_attribute_sees_every_scan(monkeypatch):
    # the wrapping rule of perfbench/tracing.py: replace every reference
    # to the attribute's function in the package's loaded modules
    seen = []
    orig = weights.max_pair_ratio

    def wrapped(*args):
        seen.append(args[6])
        return orig(*args)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("sharpweights"):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, wrapped)
    w = PowerWeight(1.0, 0.4, 0.8)
    kinds = [FunctionalKind.aq(5.0), FunctionalKind.a_inf(),
             FunctionalKind.rh_p(2.0), FunctionalKind.rh_inf()]
    for kind in kinds:
        weights.sup_ratio_search(w, kind, 6)
    assert seen == [0, 1, 0, 2]


# captures the modules of interpreter start before anything else loads
BOUNDARY_SCRIPT = """
import sys
start = set(sys.modules)
import sharpweights
from sharpweights import cli

def added():
    return sorted({"dataclasses", "json"} & (set(sys.modules) - start))

steps = [added()]
for argv in %r:
    steps.append((cli.main(argv), added()))
print(steps)
"""

# what the parent of the namedtuple records printed for --format json, with the
# residuals of moment as interval_moment on [0, 1]
JSON_LINES = [
    '{"p": 2.0, "q": 5.0, "delta": 2.0, "q_star": 7.464101615137754, "c_q": "inf", '
    '"c_inf": 85.96984005009581}',
    '{"p": 2.0, "delta": 2.0, "x1": 1.0, "x2": 2.0, "branch": "minus", '
    '"c": 0.9148357668252574, "a": 0.10749381415070447, "nu": -0.4641016151377546, '
    '"resid_x1": 0.0, "resid_x2": 8.881784197001252e-16, "resid_delta": 4.440892098500626e-16}',
]
JSON_COMMANDS = [
    ["constants", "--p", "2", "--q", "5", "--delta", "2", "--format", "json"],
    ["extremal", "--p", "2", "--delta", "2", "--x1", "1", "--x2", "2", "--branch", "minus",
     "--format", "json"],
]


def run_boundary(commands):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_SCRIPT % (commands,)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    *printed, steps = proc.stdout.splitlines()
    return printed, ast.literal_eval(steps)


def test_plain_commands_load_neither_dataclasses_nor_json():
    printed, steps = run_boundary(SCALAR_COMMANDS)
    assert steps == [[]] + [(0, [])] * len(SCALAR_COMMANDS)
    assert len(printed) == len(SCALAR_COMMANDS) + 3  # the sweep prints four rows


def test_json_format_loads_json_and_prints_the_same_bytes():
    printed, steps = run_boundary(JSON_COMMANDS)
    assert steps == [[], (0, ["json"]), (0, ["json"])]
    assert printed == JSON_LINES

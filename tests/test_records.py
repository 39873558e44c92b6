"""The six result records behave as the frozen dataclasses they replace.

Each is a namedtuple, so the reprs, equality and hash by fields,
read-only fields and pickling below are pinned to what the dataclass
versions gave; construction still validates every input.
"""

import ast
import math
import pickle
from pathlib import Path

import pytest

import sharpweights
from sharpweights import (
    DomainError,
    EmbeddingResult,
    FunctionalKind,
    NDimBound,
    Parameters,
    PowerWeight,
    aq_constant,
    bellman,
    ndim_aq_bound,
    rht_constant,
    tangent_segment,
)

# (a record, another of its type, the repr the dataclass version printed)
RECORDS = {
    "PowerWeight": (
        lambda: PowerWeight(1.5, 0.25, -0.3),
        PowerWeight(c=2.0, a=1.0, nu=0.0),
        "PowerWeight(c=1.5, a=0.25, nu=-0.3)",
    ),
    "FunctionalKind": (
        lambda: FunctionalKind.aq(3.0),
        FunctionalKind.a_inf(),
        "FunctionalKind(name='aq', exponent=3.0)",
    ),
    "FunctionalKind.a_inf": (
        FunctionalKind.a_inf,
        FunctionalKind.rh_inf(),
        "FunctionalKind(name='ainf', exponent=None)",
    ),
    "Parameters": (
        lambda: Parameters(2.0, 10.0, 2.0),
        Parameters(math.inf, 3.0, 1.5),
        "Parameters(p=2.0, q=10.0, delta=2.0)",
    ),
    "TangentSegment": (
        lambda: tangent_segment(2.0, 2.0, 1.0, "minus"),
        tangent_segment(2.0, 2.0, 1.0),
        "TangentSegment(b=1.0, endpoint_gamma_delta=(1.0, 4.0), "
        "endpoint_gamma_one=(0.5358983848622454, 0.2871870788979633), branch='minus')",
    ),
    "EmbeddingResult": (
        lambda: aq_constant(2.0, 10.0, 2.0),
        rht_constant(2.0, 3.0, 2.0),
        "EmbeddingResult(constant=11967.912848418275, critical_exponent=7.464101615137754)",
    ),
    "NDimBound": (
        lambda: ndim_aq_bound(2.0, 3.0, 2, 1.01),
        ndim_aq_bound(2.0, 3.0, 3, 1.01),
        "NDimBound(n=2, y=1.5079794174661927, epsilon=1.0964148132382676, "
        "constant=1.3857727785133218)",
    ),
}


FIELDS = {
    PowerWeight: ("c", "a", "nu"),
    FunctionalKind: ("name", "exponent"),
    Parameters: ("p", "q", "delta"),
    bellman.TangentSegment: ("b", "endpoint_gamma_delta", "endpoint_gamma_one", "branch"),
    EmbeddingResult: ("constant", "critical_exponent"),
    NDimBound: ("n", "y", "epsilon", "constant"),
}


def _values(rec):
    return tuple(getattr(rec, field) for field in FIELDS[type(rec)])


@pytest.fixture(params=list(RECORDS), ids=list(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_repr_matches_the_dataclass_text(record):
    make, _, text = record
    assert repr(make()) == text


def test_equality_and_hash_are_by_fields(record):
    make, other, _ = record
    first, second = make(), make()
    assert first == second and first is not second
    assert hash(first) == hash(second) == hash(_values(first))
    assert first != other and type(first) is type(other)


def test_fields_are_read_only(record):
    rec = record[0]()
    for field in FIELDS[type(rec)]:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))


def test_pickling_round_trips(record):
    rec = record[0]()
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec and repr(back) == repr(rec)


def test_constructors_take_positions_keywords_and_defaults():
    assert PowerWeight(c=1.5, a=0.25, nu=-0.3) == PowerWeight(1.5, 0.25, -0.3)
    assert FunctionalKind("rhinf").exponent is None
    assert FunctionalKind(name="aq", exponent=3.0) == FunctionalKind.aq(3.0)
    assert FunctionalKind.rh_p(2.5) == FunctionalKind("rhp", 2.5)
    assert Parameters(p=2.0, q=10.0, delta=2.0) == Parameters(2.0, 10.0, 2.0)
    seg = bellman.TangentSegment(1.0, (1.0, 4.0), (2.0, 3.0))
    assert seg.branch == "plus"
    assert EmbeddingResult(constant=math.inf, critical_exponent=2.0).finite is False
    assert EmbeddingResult(3.0, 2.0).finite is True
    assert NDimBound(n=2, y=1.5, epsilon=1.1, constant=1.4).n == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: PowerWeight(0.0, 0.5, 1.0),
        lambda: PowerWeight(1.0, 1.5, 1.0),
        lambda: PowerWeight(1.0, 0.5, math.nan),
        lambda: FunctionalKind("lq"),
        lambda: FunctionalKind("aq"),
        lambda: FunctionalKind("rhp", math.inf),
        lambda: FunctionalKind("ainf", 2.0),
        lambda: Parameters(1.0, 3.0, 2.0),
        lambda: Parameters(2.0, 3.0, 0.5),
        lambda: Parameters(2.0, math.nan, 2.0),
        lambda: Parameters(2.0, 1.0, 2.0),
        lambda: Parameters(2.0, 0.25, 2.0),
        lambda: Parameters(math.inf, 0.5, 2.0),
    ],
)
def test_invalid_construction_raises_domain_error(make):
    with pytest.raises(DomainError):
        make()


def test_parameters_read_their_roots_through_the_root_memo(monkeypatch):
    bellman.roots.critical_root.cache_clear()
    solves = []
    bisect_root = bellman.roots.bisect_root

    def counted(*args, **kwargs):
        solves.append(args)
        return bisect_root(*args, **kwargs)

    monkeypatch.setattr(bellman.roots, "bisect_root", counted)
    upper, lower = Parameters(2.0, 10.0, 2.0), Parameters(2.0, 0.52, 2.0)
    first = (upper.q_star, upper.q_sub, upper.regime, lower.regime)
    assert solves and first[2:] == ("upper", "lower")
    assert (upper.q_star, upper.q_sub, upper.regime, lower.regime) == first
    solves.clear()
    again, below = Parameters(2.0, 10.0, 2.0), Parameters(2.0, 0.52, 2.0)
    assert (again.q_star, again.q_sub, again.regime, below.regime) == first
    assert solves == []
    # no cached state rides along: the record pickles as its (p, q, delta)
    assert upper.__reduce_ex__(2)[1:] == ((Parameters, 2.0, 10.0, 2.0), None, None, None)


CACHES = {"lru_cache", "cache", "cached_property"}


def _names_a_cache(node):
    if isinstance(node, ast.Name):
        return node.id in CACHES
    if isinstance(node, ast.Attribute):
        return node.attr in CACHES
    return isinstance(node, ast.alias) and node.name.rpartition(".")[2] in CACHES


def test_the_root_memos_are_the_only_caches_and_every_record_is_slot_only():
    # a root is kept in one place, its memo in roots, and a record holds its
    # fields and nothing else: no instance dict for a cache to fill
    memos, elsewhere = [], []
    for path in sorted(Path(sharpweights.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        decorating = set()
        for node in ast.walk(tree):
            for decorator in getattr(node, "decorator_list", []):
                if any(map(_names_a_cache, ast.walk(decorator))):
                    memos.append(f"{path.stem}.{node.name}")
                    decorating.update(ast.walk(decorator))
        elsewhere += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _names_a_cache(n) and n not in decorating]
    assert memos == ["roots.critical_root"]
    assert elsewhere == []
    instances = {type(rec): rec for rec in (make() for make, _, _ in RECORDS.values())}
    exported = {getattr(sharpweights, name) for name in sharpweights.__all__}
    assert {cls for cls in exported if isinstance(cls, type) and issubclass(cls, tuple)} <= set(instances)
    assert [cls.__name__ for cls, rec in instances.items() if hasattr(rec, "__dict__")] == []

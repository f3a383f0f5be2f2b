"""Public surface that callers outside the package bind to.

overlapkit.__all__ is pinned name by name, and so are the parameter names,
order and defaults of the four property checkers whose reports the
benchmark tracer (bench/spans.py) reads: it binds each call's arguments and
looks up ``prop`` and ``config`` by name. check_property, the entry point
the three old property checkers call, is pinned the same way. So are the parameters of the two
bisection kernels, which the benchmark's probes pass by position, and the
private helpers the benchmark harness reaches outside __all__.
"""

from __future__ import annotations

import inspect

import pytest

import overlapkit as ok
from overlapkit import cli, numerics, properties

PUBLIC_NAMES = [
    "AGGREGATION_NAMES",
    "AxiomCheck",
    "AxiomReport",
    "CATALOG_NAMES",
    "CheckConfig",
    "Comparison",
    "ConfigError",
    "CrispFit",
    "DEFAULT_CONFIG",
    "FusionFunction",
    "IdempotencyResult",
    "Implication",
    "Negation",
    "NegationClassification",
    "OperatorFamily",
    "OverlapkitError",
    "PreconditionError",
    "PropertyReport",
    "PropertyWitness",
    "UnitRangeError",
    "UnitValue",
    "aggregate",
    "aggregate_go",
    "bisect_sup",
    "catalog",
    "check_associativity",
    "check_axioms",
    "check_commutes",
    "check_contraposition",
    "check_ep",
    "check_idempotent",
    "check_implication_axioms",
    "check_properties",
    "check_property",
    "check_unary_property",
    "classify",
    "classify_crisp",
    "compare",
    "continuity_heuristic",
    "dual",
    "find_neutral",
    "grouping_from",
    "grouping_max",
    "grouping_probsum",
    "idempotent_go",
    "invert_strict",
    "inverse_negation",
    "load_config",
    "make_aggregation",
    "make_bottom",
    "make_crisp",
    "make_crisp_family",
    "make_d",
    "make_gn",
    "make_gon",
    "make_power_strict",
    "make_ql",
    "make_residual",
    "make_standard",
    "make_tn",
    "make_top",
    "natural_negation",
    "overlap_from",
    "pair_points",
    "piecewise_neutral_go",
    "range_is_proper",
    "recover_go",
    "sample_grid",
    "triple_points",
    "truncate_overlap",
]

_EMPTY = inspect.Parameter.empty

CHECKER_PARAMETERS = {
    "check_properties": [
        ("implication", _EMPTY),
        ("pids", _EMPTY),
        ("negation", None),
        ("config", ok.DEFAULT_CONFIG),
    ],
    "check_property": [
        ("implication", _EMPTY),
        ("prop", _EMPTY),
        ("negation", None),
        ("config", ok.DEFAULT_CONFIG),
    ],
    "check_unary_property": [("implication", _EMPTY), ("prop", _EMPTY), ("config", ok.DEFAULT_CONFIG)],
    "check_ep": [("implication", _EMPTY), ("variant", "EP"), ("config", ok.DEFAULT_CONFIG)],
    "check_contraposition": [
        ("implication", _EMPTY),
        ("negation", _EMPTY),
        ("variant", "CP"),
        ("config", ok.DEFAULT_CONFIG),
    ],
    "compare": [("i1", _EMPTY), ("i2", _EMPTY), ("config", ok.DEFAULT_CONFIG)],
}


def test_public_names():
    assert ok.__all__ == PUBLIC_NAMES
    assert all(hasattr(ok, name) for name in ok.__all__)


@pytest.mark.parametrize("name", sorted(CHECKER_PARAMETERS))
def test_checker_signature(name):
    params = inspect.signature(getattr(ok, name)).parameters.values()
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert [(p.name, p.default) for p in params] == CHECKER_PARAMETERS[name]


# Bisection kernels that bench/probes.py calls with positional arguments.
BISECTION_PARAMETERS = {
    "bisect_sup": ["pred", "tol"],
    "invert_strict": ["negation", "y", "tol"],
}


@pytest.mark.parametrize("name", sorted(BISECTION_PARAMETERS))
def test_bisection_signature(name):
    params = inspect.signature(getattr(ok, name)).parameters.values()
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD and p.default is _EMPTY for p in params)
    assert [p.name for p in params] == BISECTION_PARAMETERS[name]


def test_traced_binding_finds_prop_and_config():
    imp = ok.make_gon(ok.catalog("O_min"), ok.make_standard())
    cfg = ok.CheckConfig(grid_resolution=11, random_samples=0)
    calls = {
        "check_unary_property": ((imp, "NP"), {"config": cfg}),
        "check_ep": ((imp,), {}),
        "check_contraposition": ((imp, ok.make_standard(), "LCP", cfg), {}),
        "compare": ((imp, imp), {}),
    }
    for name, (args, kwargs) in calls.items():
        bound = inspect.signature(getattr(ok, name)).bind(*args, **kwargs)
        bound.apply_defaults()
        assert bound.arguments.get("prop") == ("NP" if name == "check_unary_property" else None)
        assert bound.arguments["config"] == (ok.DEFAULT_CONFIG if name in ("check_ep", "compare") else cfg)


# What the benchmark harness binds outside the public names: bench/spans.py
# counts mesh points through the two generators and wraps each class's own
# __call__; bench/run.py warms the three grid caches and builds the parser.
@pytest.mark.parametrize("name", ["pair_points", "triple_points"])
def test_mesh_generators(name):
    fn = getattr(properties, name)
    assert inspect.isgeneratorfunction(fn)
    assert list(inspect.signature(fn).parameters) == ["config"]


@pytest.mark.parametrize("name", ["uniform_grid", "random_points", "sorted_samples"])
def test_grid_caches(name):
    assert list(inspect.signature(getattr(numerics, name)).parameters) == ["config"]


def test_parser_builder_takes_no_arguments():
    assert not inspect.signature(cli._build_parser).parameters


@pytest.mark.parametrize("cls", [ok.Negation, ok.FusionFunction, ok.Implication], ids=lambda c: c.__name__)
def test_scalar_call_is_defined_on_the_class(cls):
    assert callable(cls.__dict__["__call__"])

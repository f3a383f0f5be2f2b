"""Shared fixtures: catalog instances, reduced configs for slow scans, and the
golden-fixture writer."""

from __future__ import annotations

import json

import pytest
from hypothesis import settings

import overlapkit as ok

# One Hypothesis profile for the whole suite: the same examples on every run, and no per-example
# deadline, since a shared host's timings vary too much for one.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# Canonical finite negation catalog used by every quantified sweep. The
# parametric families are pinned at the values the CLI instances use.
NEGATION_CATALOG = (
    ("zadeh", ok.make_standard),
    ("bottom", ok.make_bottom),
    ("top", ok.make_top),
    ("crisp_lower:0.5", lambda: ok.make_crisp("lower", 0.5)),
    ("crisp_upper:0.5", lambda: ok.make_crisp("upper", 0.5)),
    ("power:2", lambda: ok.make_power_strict(2)),
)

# All nine named table entries with their required parameters.
CATALOG_ENTRIES = (
    ("O_mM", {}),
    ("O_DB", {}),
    ("O_P", {"p": 2}),
    ("O_V", {}),
    ("O_min", {}),
    ("GO_max", {}),
    ("GO_TL", {"p": 2}),
    ("GO_PN", {"n": 3}),
    ("GO_GN", {"n": 3}),
)

BINARY_ENTRIES = tuple(e for e in CATALOG_ENTRIES if e[0] not in ("GO_PN", "GO_GN"))
OVERLAP_ENTRIES = tuple(e for e in BINARY_ENTRIES if not e[0].startswith("GO_"))


@pytest.fixture(scope="session")
def negations():
    return tuple(make() for _, make in NEGATION_CATALOG)


@pytest.fixture(scope="session")
def binary_catalog():
    return tuple(ok.catalog(name, **params) for name, params in BINARY_ENTRIES)


@pytest.fixture(scope="session")
def overlap_catalog():
    return tuple(ok.catalog(name, **params) for name, params in OVERLAP_ENTRIES)


@pytest.fixture(scope="session")
def coarse():
    # Enough resolution to see every catalog feature, fast enough for sweeps.
    return ok.CheckConfig(grid_resolution=21, random_samples=40)


def write_fixture(path: str, data: dict) -> None:
    """Overwrite the golden fixture at path with data, printing each key
    added, removed or changed against the file it replaces."""
    try:
        with open(path, encoding="utf-8") as handle:
            old = json.load(handle)
    except FileNotFoundError:
        old = {}
    new = json.loads(json.dumps(data))
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            print(f"added {key}")
        elif key not in new:
            print(f"removed {key}")
        elif old[key] != new[key]:
            print(f"changed {key}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(data)} cases in {path}")

"""The demo scripts print exactly the output recorded in demo_stdout.json.

Each script in demos/ runs in-process as __main__ with stdout captured.
Re-record only from a commit whose outputs are known good:

    PYTHONPATH=src python tests/test_demos.py --record
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import runpy
import sys
import warnings

import pytest

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "demo_stdout.json")
DEMOS = sorted(glob.glob(os.path.join(HERE, os.pardir, "demos", "*.py")))


def _stdout(path: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runpy.run_path(path, run_name="__main__")
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_demo(golden):
    assert sorted(golden) == [os.path.basename(p) for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_stdout(path, golden):
    assert _stdout(path) == golden[os.path.basename(path)]


def _record() -> None:
    data = {os.path.basename(p): _stdout(p) for p in DEMOS}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(data)} demos in {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_demos.py --record")
    _record()

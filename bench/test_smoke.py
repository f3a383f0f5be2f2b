"""Smoke test of the benchmark harness: python3 -m pytest bench/test_smoke.py"""

import run


def test_smoke_reports_every_declared_metric():
    assert run.main(["--smoke"]) == 0

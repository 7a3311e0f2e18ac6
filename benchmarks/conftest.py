"""Shared fixtures for the benchmark suite.

The paper scenario is simulated once per pytest session (the expensive
part) and every per-table/figure benchmark times its *analysis* stage over
those shared datasets, then prints rows comparable to the paper and
asserts the qualitative shape the paper reports.

Set ``REPRO_BENCH_SCALE`` to trade fidelity for speed (default 0.5).
"""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import pipeline_for_world
from repro.experiments.scenarios import paper_results, paper_world


def bench_scale() -> float:
    """Scenario scale for benchmarks, from the environment.

    Fails fast with an actionable message when ``REPRO_BENCH_SCALE`` is
    unparsable or non-positive, instead of surfacing a bare
    ``ValueError`` from deep inside a session fixture.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE", "0.5")
    try:
        scale = float(raw)
    except ValueError:
        raise pytest.UsageError(
            "REPRO_BENCH_SCALE=%r is not a number; set it to a positive "
            "scenario scale factor such as 0.5" % raw) from None
    if scale <= 0:
        raise pytest.UsageError(
            "REPRO_BENCH_SCALE=%r must be positive; the scale multiplies "
            "the paper scenario's probe populations" % raw)
    return scale


@pytest.fixture(scope="session")
def world():
    """The simulated 2015 world (built once).

    Called exactly as :func:`paper_results` calls it, so the two share
    one ``lru_cache`` entry instead of simulating the world twice.
    """
    return paper_world(scale=bench_scale(), seed=2015)


@pytest.fixture(scope="session")
def results(world):
    """Full pipeline results over the shared world (run once)."""
    return paper_results(scale=bench_scale())


@pytest.fixture(scope="session")
def pipeline(world):
    """A fresh pipeline instance for benchmarks that time full stages."""
    return pipeline_for_world(world)

"""repro — reproduction of "Reasons Dynamic Addresses Change" (IMC 2016).

The package splits into:

* :mod:`repro.core` — the paper's analysis pipeline: probe filtering, the
  total-time-fraction metric, periodicity classification, outage detection
  and attribution, and prefix-level change analysis;
* substrates the analysis needs: :mod:`repro.net` (IPv4, pfx2as),
  :mod:`repro.dhcp` and :mod:`repro.ppp` (address assignment protocols),
  :mod:`repro.isp` (pools, policies, paper-matched profiles),
  :mod:`repro.atlas` (the three RIPE Atlas dataset formats);
* :mod:`repro.sim` — an event simulator standing in for the 2015 RIPE
  Atlas measurement plane;
* :mod:`repro.experiments` — one driver per paper table and figure.

Quickstart::

    from repro.experiments.scenarios import small_world
    from repro.core import pipeline_for_world

    world = small_world(seed=7)
    results = pipeline_for_world(world).run()
    for name, count in results.table2_rows():
        print(name, count)
"""

from repro.core.pipeline import (
    AnalysisPipeline,
    AnalysisResults,
    pipeline_for_bundle,
    pipeline_for_world,
)
from repro.sim.scenario import ScenarioConfig, paper_scenario
from repro.sim.world import WorldData, build_world

__version__ = "1.0.0"

__all__ = [
    "AnalysisPipeline",
    "AnalysisResults",
    "ScenarioConfig",
    "WorldData",
    "__version__",
    "build_world",
    "paper_scenario",
    "pipeline_for_bundle",
    "pipeline_for_world",
]

"""The analysis stage graph.

Declares :class:`StageSpec` metadata for every named stage function in
:mod:`repro.core.pipeline`: which artifacts it consumes, which it
produces, and whether it fans out per probe.  The executor walks the
graph in topological order; the artifact cache keys each stage's outputs
on its name; and :func:`validate_graph` keeps the declarations honest
(every input is either a source dataset, a parameter, or the output of
an earlier stage — and no two stages produce the same artifact).

The hot stages read the columnar views of the source datasets
(:data:`VIEW_ARTIFACTS`).  The executor builds a view on first use by a
computing stage, so a run served wholly from the cache never builds one.

The graph intentionally lives apart from the stage *implementations*
(which stay in ``core`` so the serial pipeline keeps working without this
package): ``runtime`` ranks above ``core`` in the layer DAG and may
import it, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import pipeline as _pipeline

#: Array views of the record datasets (DESIGN.md §16): ``colconn`` of
#: ``connlog``, ``colup`` of ``uptime``.
VIEW_ARTIFACTS = frozenset({"colconn", "colup"})

#: Artifacts that exist before any stage runs: the loaded datasets and
#: their (lazily built) views.
SOURCE_ARTIFACTS = frozenset({
    "connlog", "archive", "ip2as", "uptime", "kroot",
}) | VIEW_ARTIFACTS

#: Scalar knobs that parameterize stages (part of every cache key).
PARAMETERS = frozenset({"min_connected"})


@dataclass(frozen=True)
class StageSpec:
    """One named stage: declared dataflow plus its pure implementation.

    ``fan_out`` marks stages whose dominant cost is an independent
    per-probe kernel; only these are dispatched to worker processes.
    The remaining stages are cheap aggregations the parent runs inline.

    ``cacheable=False`` marks stages whose output is a near-free
    projection of an earlier artifact: re-running the stage function on
    a warm run is cheaper than deserializing its (fat) output, so the
    executor neither looks such a stage up in the cache nor stores it.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fan_out: bool
    #: Whole-input implementation (the serial path).
    func: Callable
    cacheable: bool = True


#: The pipeline's stages in execution (topological) order.
STAGES: tuple[StageSpec, ...] = (
    StageSpec(
        name="filter",
        inputs=("colconn", "archive", "ip2as", "min_connected"),
        outputs=("filter_report",),
        fan_out=True,
        func=_pipeline.stage_filter_col,
    ),
    StageSpec(
        name="spans",
        inputs=("colconn", "filter_report"),
        outputs=("spans_by_probe", "durations_by_probe"),
        fan_out=True,
        func=_pipeline.stage_spans_col,
    ),
    StageSpec(
        name="changes",
        inputs=("filter_report",),
        outputs=("changes_by_probe", "asn_by_probe"),
        fan_out=False,
        func=_pipeline.stage_changes,
        # Pure reshaping of verdicts the filter artifact already holds:
        # storing it duplicated megabytes of AddressChange pickle that
        # cost more to load than stage_changes costs to re-run.
        cacheable=False,
    ),
    StageSpec(
        name="reboots",
        inputs=("colup",),
        outputs=("reboot_day_counts", "firmware_days", "filtered_reboots"),
        fan_out=True,
        func=_pipeline.stage_reboots_col,
    ),
    StageSpec(
        name="gaps",
        inputs=("colconn", "kroot", "filter_report", "filtered_reboots"),
        outputs=("gap_events_by_probe",),
        fan_out=True,
        func=_pipeline.stage_gaps_col,
    ),
    StageSpec(
        name="stats",
        inputs=("gap_events_by_probe",),
        outputs=("stats_by_probe",),
        fan_out=False,
        func=_pipeline.stage_stats,
    ),
    StageSpec(
        name="v3",
        inputs=("asn_by_probe", "archive"),
        outputs=("v3_probes",),
        fan_out=False,
        func=_pipeline.stage_v3,
    ),
)


def cacheable_stages(stages: tuple[StageSpec, ...] = STAGES
                     ) -> tuple[StageSpec, ...]:
    """The stages whose outputs the artifact cache persists."""
    return tuple(spec for spec in stages if spec.cacheable)


def stage_by_name(name: str) -> StageSpec:
    """Look up one stage; raises :class:`KeyError` with the known names."""
    for spec in STAGES:
        if spec.name == name:
            return spec
    raise KeyError("unknown stage %r (known: %s)"
                   % (name, ", ".join(s.name for s in STAGES)))


def validate_graph(stages: tuple[StageSpec, ...] = STAGES) -> None:
    """Check the declared dataflow is a well-formed DAG.

    Raises :class:`ValueError` on an undefined input (not a source
    dataset, parameter, or earlier stage's output) or a doubly-produced
    artifact.  Exercised by the test suite so the declarations cannot
    drift from the implementations silently.
    """
    available = set(SOURCE_ARTIFACTS) | set(PARAMETERS)
    for spec in stages:
        for artifact in spec.inputs:
            if artifact not in available:
                raise ValueError(
                    "stage %r input %r is not a dataset, parameter, or "
                    "earlier stage output" % (spec.name, artifact))
        for artifact in spec.outputs:
            if artifact in available:
                raise ValueError(
                    "stage %r output %r is already defined"
                    % (spec.name, artifact))
            available.add(artifact)


def topological_order(stages: tuple[StageSpec, ...] = STAGES
                      ) -> tuple[StageSpec, ...]:
    """The stages in dependency order (validates as a side effect)."""
    validate_graph(stages)
    return stages


def render_graph(stages: tuple[StageSpec, ...] = STAGES) -> str:
    """Human-readable dataflow listing for ``repro-run --list-stages``."""
    lines = []
    for spec in stages:
        mode = "per-probe" if spec.fan_out else "aggregate"
        if not spec.cacheable:
            mode += ", uncached"
        lines.append("%-8s (%s)" % (spec.name, mode))
        lines.append("  in:  %s" % ", ".join(spec.inputs))
        lines.append("  out: %s" % ", ".join(spec.outputs))
    return "\n".join(lines)

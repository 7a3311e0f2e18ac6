"""The stage graph's declarations are validated and honest."""

from __future__ import annotations

import pytest

from repro.runtime.stages import (
    PARAMETERS,
    SOURCE_ARTIFACTS,
    STAGES,
    StageSpec,
    render_graph,
    stage_by_name,
    topological_order,
    validate_graph,
)


def test_builtin_graph_is_valid():
    validate_graph()
    assert topological_order() == STAGES


def test_stage_names_match_pipeline_decomposition():
    assert [spec.name for spec in STAGES] == [
        "filter", "spans", "changes", "reboots", "gaps", "stats", "v3"]


def test_every_input_is_declared_somewhere():
    produced = {out for spec in STAGES for out in spec.outputs}
    for spec in STAGES:
        for name in spec.inputs:
            assert (name in SOURCE_ARTIFACTS or name in PARAMETERS
                    or name in produced)


def test_undefined_input_rejected():
    bogus = STAGES + (StageSpec("extra", ("nonexistent",), ("x",),
                                False, lambda v: v),)
    with pytest.raises(ValueError, match="not a dataset"):
        validate_graph(bogus)


def test_duplicate_output_rejected():
    bogus = STAGES + (StageSpec("extra", ("connlog",), ("filter_report",),
                                False, lambda v: v),)
    with pytest.raises(ValueError, match="already defined"):
        validate_graph(bogus)


def test_stage_by_name():
    assert stage_by_name("gaps").inputs == (
        "colconn", "kroot", "filter_report", "filtered_reboots")
    with pytest.raises(KeyError, match="unknown stage"):
        stage_by_name("nope")


def test_render_graph_lists_every_stage():
    text = render_graph()
    for spec in STAGES:
        assert spec.name in text
        for artifact in spec.outputs:
            assert artifact in text

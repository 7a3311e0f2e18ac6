"""Tests for repro.util.heap."""

import gc

import pytest

from repro.util.heap import collector_paused, frozen_heap


@pytest.fixture
def collector_state():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_restores_previous_state(collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_restores_state_when_block_raises(collector_state,
                                                          enabled):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError):
        with collector_paused():
            raise RuntimeError("build failed")
    assert gc.isenabled() is enabled


def test_frozen_heap_unfreezes_on_exit():
    with frozen_heap():
        assert gc.get_freeze_count() > 0
    assert gc.get_freeze_count() == 0

"""Lease-board tests: the pure shard state machine under adversarial
delivery.

The board is single-threaded and clock-injected, so hypothesis can
drive arbitrary interleavings of out-of-order, duplicate, and
stale-retry envelopes — plus worker deaths at any point — and assert
the merge discipline directly: every shard resolves exactly once, the
payload list equals the serial kernel outputs (which is what makes the
distributed ``results_digest`` bit-identical), and the accounting obeys
``analyzed + quarantined == total``.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.board import (
    CAUSE_DISCONNECT,
    CAUSE_HANG,
    SUBMIT_CORRUPT,
    SUBMIT_DUPLICATE,
    SUBMIT_LATE,
    SUBMIT_RESOLVED,
    LeaseBoard,
    SupervisionPolicy,
)
from repro.runtime.workers import ShardResult
from repro.util import fingerprint as fp

pytestmark = pytest.mark.dist


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def payload_of(index):
    return {index: index * index}


def envelope(index, attempt=0, corrupt=False):
    blob = pickle.dumps(payload_of(index),
                        protocol=pickle.HIGHEST_PROTOCOL)
    seal = fp.hash_bytes(blob)
    if corrupt:
        blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    return ShardResult(shard_index=index, attempt=attempt,
                       payload_pickle=blob, seal=seal)


def make_board(count=4, max_retries=2, deadline=100.0, backoff=0.0,
               clock=None):
    shards = [[index] for index in range(count)]
    policy = SupervisionPolicy(max_retries=max_retries,
                               shard_deadline_s=deadline,
                               backoff_base_s=backoff)
    return LeaseBoard("filter", shards, policy,
                      clock=clock or FakeClock())


def drain_leases(board, worker_id="w0"):
    records = []
    while (record := board.lease(worker_id)) is not None:
        records.append(record)
    return records


def test_one_reading_per_turn_keeps_instants_that_pass_mid_turn():
    """A scheduler turn reads the clock at 9.99, expires nothing, grants
    nothing, and asks for its next wakeup at 10.01.  The deadline (10.0)
    and the backoff end (10.0) that passed in between are still
    reported, because the turn hands its one reading to every call."""
    clock = FakeClock()
    board = make_board(2, deadline=10.0, backoff=1.0, clock=clock)
    hung = board.lease("w0")
    crashed = board.lease("w1")
    clock.now = 9.0
    board.fail_lease(crashed.lease_id, "kernel error")
    clock.now = 9.99
    now = clock()
    assert board.expire(now) == []
    assert board.lease("w1", now) is None  # backed off until 10.0
    clock.now = 10.01
    assert board.wakeup_at(now) == 10.0
    now = clock()
    assert [record.lease_id for record in board.expire(now)] \
        == [hung.lease_id]
    assert board.lease("w1", now).shard_index == crashed.shard_index
    assert board.lease("w0", now) is None  # the hung shard backs off
    assert board.wakeup_at(now) == now + 1.0


def test_happy_path_resolves_in_shard_order():
    board = make_board(4)
    records = drain_leases(board)
    assert [record.shard_index for record in records] == [0, 1, 2, 3]
    for record in records:
        verdict = board.submit(record.lease_id,
                               envelope(record.shard_index))
        assert verdict == SUBMIT_RESOLVED
    assert board.done
    outcome = board.finish(lambda item: item)
    assert outcome.payloads == [payload_of(index) for index in range(4)]
    row = outcome.resilience
    assert row.analyzed_items == row.total_items == 4
    assert row.quarantined_items == 0 and not row.degraded


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_interleaving_of_envelopes_merges_identically(data):
    """Out-of-order, duplicate, and stale-retry deliveries — in any
    order — resolve every shard exactly once with the serial payloads."""
    board = make_board(5, max_retries=10)
    records = drain_leases(board)
    deliveries = [(record.lease_id, envelope(record.shard_index))
                  for record in records]
    # Duplicates of some shards, plus stale retries under dead lease ids.
    extras = data.draw(st.lists(
        st.tuples(st.integers(0, 4), st.booleans()), max_size=8))
    for index, use_bogus_lease in extras:
        lease_id = -5 if use_bogus_lease else deliveries[index][0]
        deliveries.append((lease_id, envelope(index, attempt=3)))
    for lease_id, env in data.draw(st.permutations(deliveries)):
        verdict = board.submit(lease_id, env)
        assert verdict in (SUBMIT_RESOLVED, SUBMIT_LATE,
                           SUBMIT_DUPLICATE)
    assert board.done
    outcome = board.finish(lambda item: item)
    assert outcome.payloads == [payload_of(index) for index in range(5)]
    row = outcome.resilience
    assert row.analyzed_items + row.quarantined_items == row.total_items
    assert row.quarantined_items == 0


@settings(max_examples=50, deadline=None)
@given(dead_after=st.integers(0, 4),
       victim=st.sampled_from(["w0", "w1"]))
def test_worker_death_mid_lease_never_loses_or_double_counts(
        dead_after, victim):
    board = make_board(5, max_retries=10)
    granted = {"w0": [], "w1": []}
    worker = "w0"
    while (record := board.lease(worker)) is not None:
        granted[worker].append(record)
        worker = "w1" if worker == "w0" else "w0"
    # The victim resolves a few of its leases, then dies mid-flight.
    survived = granted[victim][:dead_after]
    for record in survived:
        board.submit(record.lease_id, envelope(record.shard_index))
    board.disconnect(victim)
    # The survivor serves its own leases plus the victim's reassigned
    # shards until the stage drains.
    survivor = "w1" if victim == "w0" else "w0"
    for record in granted[survivor]:
        board.submit(record.lease_id, envelope(record.shard_index))
    while not board.done:
        record = board.lease(survivor)
        assert record is not None, "unresolved shard never regrantable"
        board.submit(record.lease_id, envelope(record.shard_index))
    outcome = board.finish(lambda item: item)
    assert outcome.payloads == [payload_of(index) for index in range(5)]
    row = outcome.resilience
    assert row.analyzed_items == row.total_items
    lost = len(granted[victim]) - len(survived)
    assert row.reassignments == lost
    assert sum(1 for failure in row.failures
               if failure.cause == CAUSE_DISCONNECT) == lost


def test_expired_lease_is_reassigned_and_charged_as_hang():
    clock = FakeClock()
    board = make_board(1, deadline=10.0, clock=clock)
    first = board.lease("w0")
    clock.now = 11.0
    expired = board.expire()
    assert [record.lease_id for record in expired] == [first.lease_id]
    second = board.lease("w1")
    assert second.shard_index == 0 and second.attempt == 1
    board.submit(second.lease_id, envelope(0, attempt=1))
    assert board.done and board.reassignments == 1
    assert board.failures[0].cause == CAUSE_HANG


def test_late_envelope_from_expired_lease_still_resolves():
    clock = FakeClock()
    board = make_board(1, deadline=10.0, clock=clock)
    record = board.lease("w0")
    clock.now = 11.0
    board.expire()
    assert board.submit(record.lease_id, envelope(0)) == SUBMIT_LATE
    assert board.done and board.late == 1
    # The replacement's envelope is now a duplicate, not a double merge.
    assert board.submit(-1, envelope(0, attempt=1)) == SUBMIT_DUPLICATE
    assert board.duplicates == 1


def test_backoff_gates_regrant_until_clock_advances():
    clock = FakeClock()
    board = make_board(1, backoff=5.0, clock=clock)
    record = board.lease("w0")
    board.fail_lease(record.lease_id, "kernel exploded")
    assert board.lease("w0") is None  # still inside the backoff window
    clock.now = 5.1
    retry = board.lease("w0")
    assert retry is not None and retry.attempt == 1


def test_corrupt_envelope_is_charged_and_retried():
    board = make_board(1, max_retries=2)
    record = board.lease("w0")
    verdict = board.submit(record.lease_id, envelope(0, corrupt=True))
    assert verdict == SUBMIT_CORRUPT
    retry = board.lease("w0")
    assert retry is not None and retry.attempt == 1
    board.submit(retry.lease_id, envelope(0, attempt=1))
    assert board.done


def test_exhausted_retries_quarantine_the_shard():
    board = make_board(2, max_retries=1)
    while not board.done:
        record = board.lease("w0")
        if record is None:
            break
        if record.shard_index == 0:
            board.fail_lease(record.lease_id, "always fails")
        else:
            board.submit(record.lease_id, envelope(1))
    assert board.done
    outcome = board.finish(lambda item: item)
    row = outcome.resilience
    assert row.abandoned == (0,)
    assert row.quarantined_probes == (0,)
    assert row.analyzed_items + row.quarantined_items == row.total_items
    assert row.degraded
    assert outcome.payloads[0] is None
    assert outcome.payloads[1] == payload_of(1)


def test_envelope_for_wrong_shard_resolves_itself_and_requeues_lease():
    board = make_board(2)
    first = board.lease("w0")
    second = board.lease("w1")
    assert (first.shard_index, second.shard_index) == (0, 1)
    # w0 answers its shard-0 lease with shard 1's envelope.
    verdict = board.submit(first.lease_id, envelope(1))
    assert verdict == SUBMIT_LATE  # resolved shard 1, not the lease's
    # Shard 0 must not starve: it is regrantable once its stale lease
    # is released, and shard 1's own result is now a duplicate.
    assert board.submit(second.lease_id, envelope(1)) == SUBMIT_DUPLICATE
    requeued = board.lease("w1")
    assert requeued is not None and requeued.shard_index == 0
    board.submit(requeued.lease_id, envelope(0))
    assert board.done


def test_result_without_envelope_charges_the_lease():
    board = make_board(1)
    record = board.lease("w0")
    assert board.submit(record.lease_id, None) == SUBMIT_CORRUPT
    retry = board.lease("w0")
    assert retry is not None and retry.attempt == 1

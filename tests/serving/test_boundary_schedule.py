"""The bucketed block-boundary schedule against the heap it replaced.

``DecodeTracker`` schedules each decoding sequence's next KV block boundary
in a per-iteration bucket, with one heap key per bucket.  ``HeapSchedule``
below keeps the schedule it replaced verbatim: one ``(iteration, tiebreak,
sequence)`` heap entry per arm, and the scheduler's per-sequence re-arm
loop.  Seeded random episodes drive both through the same operations —
decode starts, re-arms to a new iteration and back again, overdue arms (a
swap-resumed admission), removals, re-homes, finishes and ``due`` pops at
advancing iterations — and the popped sequences must come back in exactly
the same order.  Coverage counters make sure each episode reaches the
stale and overdue entries the lazy invalidation has to skip.
"""

from __future__ import annotations

import collections
import heapq
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serving import Request
from repro.serving.request import Sequence
from repro.serving.scheduler import DecodeTracker

BLOCK_SIZE = 16


class HeapSchedule:
    """The per-entry boundary heap, verbatim (``arm``, ``due``), plus the
    scheduler's re-arm loop (``rearm``) over the sequences it tracks."""

    def __init__(self) -> None:
        self.iteration = 0
        self.boundary_heap: list = []
        self._pushes = 0

    def arm(self, seq) -> None:
        due = seq.kv_writable_extent - seq.request.prompt_tokens - seq._generated
        if due != seq.boundary_iteration:
            seq.boundary_iteration = due
            heapq.heappush(self.boundary_heap, (due, self._pushes, seq))
            self._pushes += 1

    def due(self) -> list:
        heap = self.boundary_heap
        iteration = self.iteration
        due = []
        while heap and heap[0][0] <= iteration:
            at, _, seq = heapq.heappop(heap)
            if seq.decode_tracker is self and seq.boundary_iteration == at:
                seq.boundary_iteration = None
                due.append(seq)
        return due

    def rearm(self, due: list) -> None:
        for seq in due:
            if seq.decode_tracker is self:
                self.arm(seq)


def twin_of(seq: Sequence) -> SimpleNamespace:
    """The oracle's copy of what ``arm``/``due`` read of a sequence."""
    return SimpleNamespace(
        request=seq.request,
        _generated=0,
        kv_writable_extent=seq.kv_writable_extent,
        boundary_iteration=None,
        decode_tracker=None,
    )


def run_episode(seed: int, iterations: int = 400) -> collections.Counter[str]:
    """One random episode; returns how often each case was reached."""
    rng = np.random.default_rng(seed)
    tracker = DecodeTracker(num_devices=3)
    oracle = HeapSchedule()
    twins: dict[int, SimpleNamespace] = {}
    running: list[Sequence] = []  # tracked sequences, in admission order
    parked: list[Sequence] = []  # removed, waiting to resume
    previous: dict[int, int] = {}  # request id -> extent before the last re-arm
    counts: collections.Counter[str] = collections.Counter()
    next_id = 0
    admits = 0

    def start(seq: Sequence, extent: int) -> None:
        nonlocal admits
        seq.admit_index = admits
        admits += 1
        seq.kv_writable_extent = extent
        tracker.start(seq)
        twin = twins[seq.request.request_id]
        twin._generated = seq._generated
        twin.kv_writable_extent = extent
        twin.decode_tracker = oracle
        oracle.arm(twin)
        running.append(seq)

    def write_pos(seq: Sequence) -> int:
        return seq.request.prompt_tokens + seq.generated_tokens

    def rearm(seq: Sequence, extent: int) -> None:
        previous[seq.request.request_id] = seq.kv_writable_extent
        seq.kv_writable_extent = extent
        twins[seq.request.request_id].kv_writable_extent = extent
        tracker.arm([seq])
        oracle.rearm([twins[seq.request.request_id]])

    for it in range(1, iterations + 1):
        tracker.step(it, float(it), None)
        oracle.iteration = it
        ended = [s for s in running if s.decode_tracker is not tracker]
        # The tracker records exactly these finishers; the episode evicts
        # them, as the scheduler would.
        assert sorted(tracker.finished, key=lambda s: s.admit_index) == ended
        tracker.finished = []
        for seq in ended:
            running.remove(seq)  # finished at this iteration
            twins[seq.request.request_id].decode_tracker = None
            counts["finish"] += 1
        for _ in range(int(rng.integers(0, 4))):
            op = rng.choice(["start", "away", "back", "overdue", "remove", "resume", "rehome"])
            if op == "start":
                request = Request(
                    next_id, 0.0, int(rng.integers(1, 40)), int(rng.integers(5, 200))
                )
                next_id += 1
                seq = Sequence(request)
                seq.admit(0.0)
                seq.prefill_done = True
                seq._generated = 1
                twins[request.request_id] = twin_of(seq)
                start(seq, (request.prompt_tokens // BLOCK_SIZE + 1) * BLOCK_SIZE)
                counts["start"] += 1
            elif not running and op != "resume":
                continue
            elif op == "away":
                seq = running[int(rng.integers(0, len(running)))]
                rearm(seq, write_pos(seq) + int(rng.integers(1, 3 * BLOCK_SIZE)))
                counts["away"] += 1
            elif op == "back":
                seq = running[int(rng.integers(0, len(running)))]
                back = previous.get(seq.request.request_id)
                if back is not None and back > write_pos(seq):
                    due = back - seq.request.prompt_tokens - seq._generated
                    if due != seq.boundary_iteration and any(
                        s is seq for s in tracker._buckets.get(due, ())
                    ):
                        counts["duplicate"] += 1  # a second entry in one bucket
                    rearm(seq, back)
                    counts["back"] += 1
            elif op == "overdue":
                seq = running[int(rng.integers(0, len(running)))]
                rearm(seq, write_pos(seq) - int(rng.integers(0, 3)))
                counts["overdue"] += 1
            elif op == "remove":
                seq = running.pop(int(rng.integers(0, len(running))))
                tracker.remove(seq)
                twin = twins[seq.request.request_id]
                twin.decode_tracker = twin.boundary_iteration = None
                parked.append(seq)
                counts["remove"] += 1
            elif op == "resume" and parked:
                # A swap-resumed sequence decodes at once; its restored
                # extent may already be due (or overdue).
                seq = parked.pop(int(rng.integers(0, len(parked))))
                start(seq, seq.request.prompt_tokens + seq._generated - int(rng.integers(0, 2)))
                counts["resume"] += 1
            elif op == "rehome":
                seq = running[int(rng.integers(0, len(running)))]
                tracker.rehome(seq, int(rng.integers(0, 3)))
                counts["rehome"] += 1
        if rng.random() < 0.6:  # some iterations pop several buckets at once
            counts["overdue_due"] += sum(
                s.boundary_iteration is not None and s.boundary_iteration < it
                for s in running
            )
            heap_entries = len(oracle.boundary_heap)
            got = tracker.due()
            expected = oracle.due()
            counts["stale"] += heap_entries - len(oracle.boundary_heap) - len(expected)
            assert [s.request.request_id for s in got] == [
                t.request.request_id for t in expected
            ], f"seed={seed} iteration={it}"
            counts["due"] += len(got)
            # The grant: each crossing takes one block, then the whole
            # grant is re-armed in due order.
            for seq in got:
                seq.kv_writable_extent += BLOCK_SIZE
                twins[seq.request.request_id].kv_writable_extent += BLOCK_SIZE
            tracker.arm(got)
            oracle.rearm([twins[s.request.request_id] for s in got])
            tracker.audit(running)
    return counts


@pytest.mark.parametrize("seed", range(6))
def test_buckets_pop_in_the_heap_order(seed):
    counts = run_episode(seed)
    for case in ("start", "away", "back", "overdue", "remove", "resume", "rehome", "finish"):
        assert counts[case] > 5, (case, counts)
    # Lazy invalidation was exercised: stale entries skipped (re-armed away,
    # removed or finished), a bucket holding one sequence twice, boundaries
    # popped after their iteration had passed, and many boundaries popped.
    assert counts["stale"] > 20, counts
    assert counts["overdue_due"] > 20, counts
    assert counts["duplicate"] > 0, counts
    assert counts["due"] > 200, counts

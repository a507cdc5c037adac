"""``SchedulingPolicy.select_rebalance`` against a verbatim copy of the
candidate-list form it replaced.

Seeded random running sets — sequences in every request state, before and
after prefill, homed on every decode device, holding few blocks so ties in
blocks held (broken by ``enqueue_index``) and movers holding 0 blocks are
common — go through both, each at free-block gaps just below, exactly at
and just above ``2 × held``.  Both must pick the same sequence object and
the same destination, or both decline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import Request, RequestState, SchedulingPolicy
from repro.serving.request import Sequence

DRAWS = 400


def reference_select_rebalance(running, pool, decode_pool):
    """``SchedulingPolicy.select_rebalance`` before the single-pass rewrite."""
    free = {d: pool.free_blocks_on(d) for d in decode_pool}
    most_loaded = min(decode_pool, key=lambda d: (free[d], d))
    least_loaded = max(decode_pool, key=lambda d: (free[d], -d))
    if most_loaded == least_loaded:
        return None
    candidates = [
        seq
        for seq in running
        if seq.state is RequestState.RUNNING
        and seq.prefill_done
        and seq.home_device == most_loaded
    ]
    if not candidates:
        return None
    mover = min(
        candidates,
        key=lambda seq: (
            pool.blocks_held(seq.request.request_id),
            seq.enqueue_index,
        ),
    )
    held = pool.blocks_held(mover.request.request_id)
    if held == 0 or free[least_loaded] < free[most_loaded] + 2 * held:
        return None
    return mover, least_loaded


class FakePool:
    """The two queries ``select_rebalance`` makes of a block manager."""

    def __init__(self, free, held):
        self.free = free
        self.held = held

    def free_blocks_on(self, device):
        return self.free[device]

    def blocks_held(self, seq_id):
        return self.held.get(seq_id, 0)


def draw(rng):
    devices = int(rng.integers(2, 6))
    first = int(rng.integers(0, devices - 1))
    decode_pool = tuple(range(first, devices))
    running = []
    held = {}
    states = list(RequestState)
    for request_id in range(int(rng.integers(0, 14))):
        seq = Sequence(
            Request(request_id, 0.0, 8, 8),
            state=RequestState.RUNNING if rng.random() < 0.7 else states[rng.integers(len(states))],
            # Indices repeat now and then, so a full-key tie falls back to
            # list order.
            enqueue_index=int(rng.integers(0, 20)),
            prefill_done=bool(rng.random() < 0.8),
            home_device=int(rng.integers(0, devices)),
        )
        running.append(seq)
        if rng.random() < 0.85:
            held[request_id] = int(rng.integers(0, 4))
    free = {d: int(rng.integers(0, 12)) for d in range(devices)}
    return running, FakePool(free, held), decode_pool


def test_single_pass_matches_reference():
    rng = np.random.default_rng(20240)
    policy = SchedulingPolicy()
    seen = dict(moved=0, held_tie=0, zero_mover=0, exact_gap=0, filtered=0)
    for _ in range(DRAWS):
        running, pool, decode_pool = draw(rng)
        free = pool.free
        most = min(decode_pool, key=lambda d: (free[d], d))
        eligible = [
            seq for seq in running
            if seq.state is RequestState.RUNNING and seq.prefill_done
            and seq.home_device == most
        ]
        seen["filtered"] += any(
            seq.home_device == most and seq not in eligible for seq in running
        )
        helds = [pool.blocks_held(seq.request.request_id) for seq in eligible]
        if helds and helds.count(min(helds)) > 1:
            seen["held_tie"] += 1
        # Re-run the draw with the least-loaded device just below, exactly at
        # and just above the hysteresis gap of the reference's mover.
        held = min(helds, default=0)
        seen["zero_mover"] += bool(helds) and held == 0
        others = [d for d in decode_pool if d != most]
        least = others[int(rng.integers(len(others)))]
        for delta in (None, -1, 0, 1):
            if delta is not None:
                free[least] = max(free[most] + 2 * held + delta, free[most] + 1)
            expected = reference_select_rebalance(running, pool, decode_pool)
            got = policy.select_rebalance(running, pool, decode_pool)
            if expected is None:
                assert got is None
                continue
            assert got is not None
            assert got[0] is expected[0] and got[1] == expected[1]
            seen["moved"] += 1
            seen["exact_gap"] += free[expected[1]] == free[most] + 2 * held
    # The seeded draws reach every case the rewrite could get wrong.
    assert all(seen.values()), seen


@pytest.mark.parametrize("enqueue", [(3, 1, 2), (1, 1, 0)])
def test_ties_in_blocks_held_go_to_the_earliest_enqueued(enqueue):
    running = [
        Sequence(Request(i, 0.0, 8, 8), state=RequestState.RUNNING,
                 enqueue_index=e, prefill_done=True, home_device=0)
        for i, e in enumerate(enqueue)
    ]
    pool = FakePool({0: 0, 1: 10}, {0: 2, 1: 2, 2: 3})
    expected = reference_select_rebalance(running, pool, (0, 1))
    got = SchedulingPolicy().select_rebalance(running, pool, (0, 1))
    assert got[0] is expected[0] is running[enqueue.index(min(enqueue[:2]))]
    assert got[1] == expected[1] == 1

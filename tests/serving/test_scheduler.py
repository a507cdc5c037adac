"""Scheduler invariants: FIFO within priority, no starvation, bounded batch."""

import pytest

from repro.serving import (
    ADMISSION_MODES,
    BlockManager,
    ContinuousBatchingScheduler,
    EngineConfig,
    Request,
    RequestState,
    SchedulerConfig,
)
from repro.serving.request import Sequence


def make_scheduler(num_blocks=16, block_size=8, max_batch=8, admission="queue"):
    return ContinuousBatchingScheduler(
        BlockManager(num_blocks=num_blocks, block_size=block_size),
        SchedulerConfig(max_batch_size=max_batch, admission=admission),
    )


def req(i, arrival=0.0, prompt=8, decode=8, priority=0):
    return Request(
        request_id=i,
        arrival_time=arrival,
        prompt_tokens=prompt,
        max_new_tokens=decode,
        priority=priority,
    )


def finish(scheduler, seq):
    """Drive a running sequence to completion and evict it."""
    now = 0.0
    while not seq.is_finished:
        now += 1.0
        seq.advance(now)
    scheduler.evict_finished()


class TestAdmissionOrder:
    def test_fifo_within_priority(self):
        sched = make_scheduler()
        for i in range(4):
            sched.add_request(req(i))
        admitted = sched.admit(now=0.0)
        assert [s.request.request_id for s in admitted] == [0, 1, 2, 3]

    def test_priority_classes_are_strict(self):
        sched = make_scheduler(max_batch=2)
        sched.add_request(req(0, priority=1))
        sched.add_request(req(1, priority=0))  # more urgent, arrived later
        sched.add_request(req(2, priority=1))
        admitted = sched.admit(now=0.0)
        assert [s.request.request_id for s in admitted] == [1, 0]

    def test_fifo_within_each_priority_class(self):
        sched = make_scheduler(max_batch=8)
        order = [(0, 1), (1, 0), (2, 1), (3, 0)]
        for i, prio in order:
            sched.add_request(req(i, priority=prio))
        admitted = sched.admit(now=0.0)
        assert [s.request.request_id for s in admitted] == [1, 3, 0, 2]


class TestCapacityBounds:
    def test_batch_never_exceeds_max_batch_size(self):
        sched = make_scheduler(num_blocks=100, max_batch=3)
        for i in range(10):
            sched.add_request(req(i))
        sched.admit(now=0.0)
        assert len(sched.running) == 3
        assert len(sched.waiting) == 7

    def test_batch_never_exceeds_kv_capacity(self):
        # Each request needs 2 blocks (16 tokens / block_size 8); 5 blocks -> 2 seqs.
        sched = make_scheduler(num_blocks=5, block_size=8, max_batch=8)
        for i in range(4):
            sched.add_request(req(i, prompt=8, decode=8))
        sched.admit(now=0.0)
        assert len(sched.running) == 2
        assert sched.block_manager.used_blocks <= sched.block_manager.num_blocks

    def test_never_fitting_request_rejected_in_queue_mode(self):
        sched = make_scheduler(num_blocks=2, block_size=8)
        seq = sched.add_request(req(0, prompt=64, decode=64))  # needs 16 blocks
        assert seq.state is RequestState.REJECTED
        assert not sched.waiting

    def test_reject_mode_sheds_load_when_full(self):
        sched = make_scheduler(num_blocks=2, block_size=8, admission="reject")
        sched.add_request(req(0, prompt=8, decode=8))  # takes both blocks
        sched.add_request(req(1, prompt=8, decode=8))  # would fit an empty pool
        sched.admit(now=0.0)
        assert [s.request.request_id for s in sched.running] == [0]
        assert [s.request.request_id for s in sched.rejected] == [1]


class TestContinuousBatching:
    def test_no_starvation_head_of_line_blocks(self):
        """A big queued request is not overtaken by smaller later arrivals."""
        sched = make_scheduler(num_blocks=4, block_size=8, max_batch=8)
        sched.add_request(req(0, prompt=8, decode=8))    # 2 blocks, admitted
        sched.add_request(req(1, prompt=16, decode=16))  # 4 blocks, must wait
        sched.add_request(req(2, prompt=8, decode=8))    # 2 blocks, would fit now
        sched.admit(now=0.0)
        assert [s.request.request_id for s in sched.running] == [0]
        # Queue mode refuses to skip request 1 even though 2 would fit.
        assert [s.request.request_id for s in sched.waiting] == [1, 2]

    def test_eviction_frees_blocks_and_unblocks_queue(self):
        sched = make_scheduler(num_blocks=4, block_size=8, max_batch=8)
        first = sched.add_request(req(0, prompt=8, decode=2))
        sched.add_request(req(1, prompt=16, decode=16))
        sched.admit(now=0.0)
        finish(sched, first)
        assert sched.block_manager.used_blocks == 0
        admitted = sched.admit(now=1.0)
        assert [s.request.request_id for s in admitted] == [1]

    def test_all_requests_eventually_served(self):
        """FIFO + bounded service time => every queued request is admitted."""
        sched = make_scheduler(num_blocks=4, block_size=8, max_batch=2)
        seqs = [sched.add_request(req(i, prompt=8, decode=2)) for i in range(6)]
        served = []
        for _ in range(20):
            sched.admit(now=0.0)
            if not sched.running:
                break
            for seq in list(sched.running):
                seq.advance(now=1.0)
                seq.advance(now=2.0)
            served += [s.request.request_id for s in sched.evict_finished()]
        assert served == [0, 1, 2, 3, 4, 5]
        assert all(s.is_finished for s in seqs)

    def test_has_work_and_batch_tokens(self):
        sched = make_scheduler()
        assert not sched.has_work
        sched.add_request(req(0, prompt=5, decode=2))
        sched.add_request(req(1, prompt=3, decode=2))
        assert sched.has_work
        sched.admit(now=0.0)
        # Both sequences are prefilling: whole prompts count as token rows.
        assert sched.batch_tokens() == 8
        for seq in sched.running:
            seq.advance(now=1.0)
        # Now both decode: one token row each.
        assert sched.batch_tokens() == 2

    def test_preempt_removes_its_victim_by_identity(self):
        """Sequences compare by identity: removing a preemption victim from
        the batch never builds and compares field tuples, and of two
        value-identical sequences only the one removed leaves."""
        assert Sequence.__eq__ is object.__eq__
        request = req(0, prompt=8, decode=4)
        first, second = Sequence(request), Sequence(request)
        assert first != second
        batch = [first, second]
        batch.remove(second)
        assert batch == [first] and batch[0] is first

        sched = make_scheduler(num_blocks=1000, block_size=8, max_batch=500)
        seqs = [sched.add_request(req(i, prompt=8, decode=4)) for i in range(500)]
        sched.admit(now=0.0)
        assert len(sched.running) == 500
        victim = seqs[499]
        sched.preempt(victim)
        assert all(s is not victim for s in sched.running)
        assert [s.request.request_id for s in sched.running] == list(range(499))
        assert victim.state is RequestState.QUEUED
        assert sched.waiting.peek() is victim


class TestConfigValidation:
    def test_bad_admission_mode(self):
        with pytest.raises(ValueError):
            SchedulerConfig(admission="drop")

    @pytest.mark.parametrize("config_cls", [SchedulerConfig, EngineConfig])
    def test_bad_admission_message_lists_every_mode(self, config_cls):
        # Derived from ADMISSION_MODES (as preempt_mode's message is from
        # PREEMPT_MODES), so adding a mode cannot leave the message stale.
        with pytest.raises(ValueError) as excinfo:
            config_cls(admission="drop")
        message = str(excinfo.value)
        assert str(ADMISSION_MODES) in message
        assert "'drop'" in message

    def test_bad_max_batch(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_size=0)

    @pytest.mark.parametrize(
        "knob",
        [
            dict(max_batch_size=0),
            dict(admission="drop"),
            dict(prefill_chunk=0),
            dict(preempt_mode="evict"),
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_engine_config_rejects_bad_scheduler_knobs_with_the_same_message(self, knob):
        with pytest.raises(ValueError) as scheduler_error:
            SchedulerConfig(**knob)
        with pytest.raises(ValueError) as engine_error:
            EngineConfig(**knob)
        assert str(engine_error.value) == str(scheduler_error.value)

"""Property tests: the heap-backed waiting queue == the old sorted list.

PR 6 replaced the scheduler's plain-list ``waiting`` (re-sorted on every
insert) with :class:`repro.serving.scheduler.WaitingQueue`, a heap keyed by
the scheduling policy's ``queue_key`` with a push-counter tiebreak.  The
refactor claims *exact* behavioral equivalence: every admission order, every
iteration view, every head peek matches what ``list.sort`` (a stable sort)
produced.  Hypothesis drives random priority mixes and preemption-style
re-pushes against a model list to pin that claim.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.request import Request, Sequence
from repro.serving.scheduler import FifoPriorityPolicy, WaitingQueue


def make_seq(request_id: int, priority: int, enqueue_index: int) -> Sequence:
    return Sequence(
        request=Request(
            request_id=request_id,
            arrival_time=0.0,
            prompt_tokens=8,
            max_new_tokens=4,
            priority=priority,
        ),
        enqueue_index=enqueue_index,
    )


def model_sorted(seqs, key):
    """The pre-PR behavior: a list re-sorted (stably) after every insert."""
    return sorted(seqs, key=key)  # sorted() is stable, like list.sort


#: A scripted queue workload: each element is a priority (push) or None
#: (pop the head, as admission does).
OPS = st.lists(
    st.one_of(st.integers(min_value=-3, max_value=3), st.none()),
    min_size=1,
    max_size=60,
)


class TestHeapMatchesStableSort:
    @given(priorities=st.lists(st.integers(min_value=-5, max_value=5), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_iteration_order_matches_sorted_list(self, priorities):
        policy = FifoPriorityPolicy()
        queue = WaitingQueue(policy.queue_key)
        model = []
        for i, prio in enumerate(priorities):
            seq = make_seq(i, prio, i)
            queue.push(seq)
            model.append(seq)
        expected = model_sorted(model, policy.queue_key)
        assert list(queue) == expected
        assert len(queue) == len(expected)
        if expected:
            assert queue.peek() is expected[0]

    @given(ops=OPS)
    @settings(max_examples=200, deadline=None)
    def test_pop_sequence_matches_sorted_list(self, ops):
        """Interleaved pushes and head pops drain in stable-sorted order."""
        policy = FifoPriorityPolicy()
        queue = WaitingQueue(policy.queue_key)
        model = []
        next_id = 0
        for op in ops:
            if op is None:
                if not model:
                    continue
                model = model_sorted(model, policy.queue_key)
                expected_head = model.pop(0)
                assert queue.pop() is expected_head
            else:
                seq = make_seq(next_id, op, next_id)
                next_id += 1
                queue.push(seq)
                model.append(seq)
        assert list(queue) == model_sorted(model, policy.queue_key)

    @given(
        priorities=st.lists(
            st.integers(min_value=-3, max_value=3), min_size=2, max_size=30
        ),
        requeue_picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_preemption_requeue_keeps_original_precedence(
        self, priorities, requeue_picks
    ):
        """A preempted sequence re-pushed with its *original* enqueue_index
        rejoins ahead of every later arrival of its priority class — the
        anti-starvation property the stable sort used to provide."""
        policy = FifoPriorityPolicy()
        queue = WaitingQueue(policy.queue_key)
        model = []
        for i, prio in enumerate(priorities):
            seq = make_seq(i, prio, i)
            queue.push(seq)
            model.append(seq)
        # Simulate preempt->requeue churn: pop the head, push it back.
        for pick in requeue_picks:
            if not model:
                break
            model = model_sorted(model, policy.queue_key)
            victim = model.pop(0)
            popped = queue.pop()
            assert popped is victim
            queue.push(victim)  # key unchanged: same (priority, enqueue_index)
            model.append(victim)
        assert list(queue) == model_sorted(model, policy.queue_key)

    @given(priorities=st.lists(st.integers(min_value=-2, max_value=2), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_equal_keys_pop_in_insertion_order(self, priorities):
        """Ties on the policy key drain FIFO (the stable-sort guarantee)."""
        policy = FifoPriorityPolicy()
        queue = WaitingQueue(policy.queue_key)
        # Same enqueue_index for everyone: the key ties completely within a
        # priority class, leaving only the push counter to break it.
        seqs = [make_seq(i, prio, 0) for i, prio in enumerate(priorities)]
        for seq in seqs:
            queue.push(seq)
        drained = [queue.pop() for _ in range(len(queue))]
        by_priority = sorted(seqs, key=lambda s: s.request.priority)
        # sorted() is stable: within a priority class, original (push) order.
        assert drained == by_priority

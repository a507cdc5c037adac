"""Iteration-level (continuous-batching) scheduler with pluggable policies.

Orca-style continuous batching: the batch is re-formed at every *iteration*
boundary rather than per request-batch.  Finished sequences are evicted and
their KV blocks freed as soon as their last token is produced, and queued
requests join the very next iteration if a batch slot and enough KV blocks
are available — no waiting for the whole batch to drain.

Two policy objects compose the scheduler:

* an :class:`~repro.serving.kv_cache.AllocationPolicy` decides *when KV
  blocks are taken* (full-extent reservation vs on-demand growth);
* a :class:`SchedulingPolicy` decides *who goes first*: the admission order
  of the waiting queue, whether another sequence may join the batch, and —
  when on-demand allocation runs the pool dry — which running sequence to
  preempt.

The scheduler also owns every move of KV between devices: it holds the
disaggregated prefill/decode pool split, steers admissions onto it, and
beside :meth:`~ContinuousBatchingScheduler.preempt` makes the
:meth:`~ContinuousBatchingScheduler.handoff` and
:meth:`~ContinuousBatchingScheduler.rebalance` moves, returning each
:class:`KVMove` for the engine to price on its clock.

Scheduling invariants (all covered by ``tests/serving/test_scheduler.py``
and ``tests/serving/test_policies.py``):

* **Strict priority, FIFO within a class.**  The waiting queue is ordered by
  ``(priority, enqueue_index)``; a request can never be overtaken by a
  later-arriving request of the same or lower priority.  Preempted sequences
  keep their original ``enqueue_index`` and so rejoin ahead of later
  arrivals of their class.
* **No starvation (queue mode).**  Admission stops at the first waiting
  request that does not fit instead of skipping over it, so head-of-line
  requests cannot be starved by smaller late arrivals; since running
  sequences always finish in bounded time (preemption victims are always
  the *lowest*-precedence running sequences, so the highest-precedence one
  always makes progress), the head is eventually admitted.
* **Batch never exceeds capacity.**  ``len(running) <= max_batch_size`` and
  allocated KV blocks never exceed the pool; under on-demand allocation
  :meth:`ContinuousBatchingScheduler.ensure_capacity` preempts before any
  iteration that would overflow.
* **Rejection is typed.**  A request whose full extent could never fit in an
  *empty* pool is rejected in either admission mode; in ``"reject"`` mode a
  request is also rejected if it does not fit at the moment it is first
  considered (load shedding), instead of queueing.  A *preempted* sequence
  is never load-shed: it was already admitted once and always requeues.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .kv_cache import AllocationPolicy, BlockManager, KVCacheExhausted, ReservationPolicy
from .request import Request, RequestState, Sequence

if TYPE_CHECKING:
    from .telemetry.tracer import Tracer

__all__ = [
    "ADMISSION_MODES",
    "PREEMPT_MODES",
    "SchedulerConfig",
    "SchedulingPolicy",
    "FifoPriorityPolicy",
    "WaitingQueue",
    "DecodeTracker",
    "KVMove",
    "MissedAdmission",
    "ContinuousBatchingScheduler",
]


#: Admission control modes shared by :class:`SchedulerConfig`,
#: :class:`~repro.serving.engine.EngineConfig`, and the CLI's
#: ``--admission`` choices (REG001: one constant, no drift).
ADMISSION_MODES: tuple[str, ...] = ("queue", "reject")

#: What preemption does to the victim's KV state, shared by
#: :class:`SchedulerConfig`, :class:`~repro.serving.engine.EngineConfig`, and
#: the CLI's ``--preempt-mode`` choices (REG001): ``"recompute"`` discards it
#: and re-prefills on resume (vLLM recompute, the historical behavior);
#: ``"swap"`` parks it in host memory and pays a PCIe swap-in on resume.
PREEMPT_MODES: tuple[str, ...] = ("recompute", "swap")


@dataclass(frozen=True)
class SchedulerConfig:
    """Policy knobs of the continuous-batching scheduler."""

    #: Hard cap on concurrent sequences, on top of the KV-capacity limit.
    max_batch_size: int = 64
    #: ``"queue"`` holds requests until capacity frees up; ``"reject"`` sheds
    #: load by rejecting requests that do not fit when first considered.
    admission: str = "queue"
    #: Sarathi-style chunked prefill: at most this many prompt tokens are fed
    #: per iteration (piggybacked with decode tokens); ``None`` feeds the
    #: whole prompt in one iteration (PR 1 behavior).
    prefill_chunk: int | None = None
    #: What preemption does to the victim's KV: ``"recompute"`` discards and
    #: re-prefills (the historical behavior), ``"swap"`` parks it in host
    #: memory and the engine prices a swap-in on resume.
    preempt_mode: str = "recompute"

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, got {self.admission!r}"
            )
        if self.prefill_chunk is not None and self.prefill_chunk <= 0:
            raise ValueError("prefill_chunk must be positive (or None to disable)")
        if self.preempt_mode not in PREEMPT_MODES:
            raise ValueError(
                f"preempt_mode must be one of {PREEMPT_MODES}, got {self.preempt_mode!r}"
            )


class SchedulingPolicy:
    """Ordering hooks of the continuous-batching scheduler.

    The default is strict priority with FIFO inside a class for admission,
    batch membership capped by ``max_batch_size``, and
    lowest-precedence-first preemption (the victim is the request a strict
    priority queue would serve last).  Subclasses override individual hooks
    to express other disciplines without touching the scheduler loop.
    """

    #: Name surfaced in the serving report.
    name: str = "priority-fifo"

    def queue_key(self, seq: Sequence) -> tuple[int, ...]:
        """Sort key of the waiting queue; admission follows this order."""
        return (seq.request.priority, seq.enqueue_index)

    def may_join(self, running: list[Sequence], config: SchedulerConfig) -> bool:
        """Batch-formation hook: may another sequence join the batch?

        Must be a function of its arguments — the batch membership and the
        config — and nothing else (no call counters, clocks or per-token
        progress).  The engine retries a failed admission only after an
        event that changes the batch or the pool, so an answer that flips
        on its own would be missed (``debug_checks`` raises
        :class:`MissedAdmission` when it does).
        """
        return len(running) < config.max_batch_size

    def select_victim(
        self, candidates: list[Sequence], pool: BlockManager | None = None
    ) -> Sequence | None:
        """Pick the running sequence to preempt when the pool runs dry.

        Default: the lowest-precedence sequence — maximal ``queue_key``, i.e.
        the lowest-priority, latest-enqueued one.  When the pool is given,
        ties inside a priority class prefer the candidate holding the fewest
        *shared* prefix blocks: preempting a sharer returns only its private
        blocks (the shared ones stay referenced by other sequences), so the
        low-sharing victim frees the most memory per preemption.  Without
        sharing every count is zero and the order is exactly the classic
        (priority, enqueue_index) one.

        The pool-aware order is expressed in terms of the *default*
        discipline; a subclass that overrides :meth:`queue_key` should
        override this hook too, or its victims will still be picked by
        (priority, sharing, enqueue_index).
        """
        if pool is None:
            return max(candidates, key=self.queue_key, default=None)
        return max(
            candidates,
            key=lambda seq: (
                seq.request.priority,
                -pool.shared_blocks_held(seq.request.request_id),
                seq.enqueue_index,
            ),
            default=None,
        )

    def select_rebalance(
        self,
        running: list[Sequence],
        pool: BlockManager,
        decode_pool: tuple[int, ...],
    ) -> tuple[Sequence, int] | None:
        """Pick a decode-phase migration to even the decode pool, or ``None``.

        Load-triggered rebalancing hook of a disaggregated scheduler:
        :meth:`ContinuousBatchingScheduler.rebalance` calls it at iteration
        boundaries where batch membership changed, over the decode pool's
        devices.  The default moves the smallest decode-phase
        sequence (fewest blocks held, ties by enqueue order) off the
        most-loaded decode device (fewest free blocks, ties by index) onto
        the least-loaded one — but only when the move leaves the destination
        at least ``2 × moved`` free blocks ahead of the source, a hysteresis
        band that keeps two near-even devices from trading the same sequence
        back and forth.  Returns ``(sequence, destination_device)``;
        subclasses may override for other elasticity disciplines.
        """
        free = {d: pool.free_blocks_on(d) for d in decode_pool}
        most_loaded = min(decode_pool, key=lambda d: (free[d], d))
        least_loaded = max(decode_pool, key=lambda d: (free[d], -d))
        if most_loaded == least_loaded:
            return None
        # One pass keeps the first candidate with the least (held, index).
        mover: Sequence | None = None
        best = (0, 0)
        for seq in running:
            if (
                seq.home_device == most_loaded
                and seq.prefill_done
                and seq.state is RequestState.RUNNING
            ):
                key = (pool.blocks_held(seq.request.request_id), seq.enqueue_index)
                if mover is None or key < best:
                    mover, best = seq, key
        if mover is None:
            return None
        held = best[0]
        if held == 0 or free[least_loaded] < free[most_loaded] + 2 * held:
            return None
        return mover, least_loaded


class FifoPriorityPolicy(SchedulingPolicy):
    """The default scheduling discipline, under its explicit name."""


class WaitingQueue:
    """Heap-backed waiting queue ordered by the scheduling policy's key.

    The pre-PR-6 scheduler kept ``waiting`` as a plain list re-sorted on
    every insert — O(n log n) per arrival, the dominant cost of long-trace
    replays.  The heap makes a push O(log n) and a head pop O(log n) while
    serving admissions in exactly the old sorted order: entries carry a
    monotonically increasing push counter, so equal policy keys pop in
    insertion order — precisely the stable-sort semantics ``list.sort``
    gave (``tests/serving/test_heap_queue.py`` pins the equivalence under
    random priorities and preemption re-pushes).

    The policy key is evaluated once, at push time.  Every in-tree key —
    ``(priority, enqueue_index)`` — is immutable while a sequence waits;
    a custom policy whose key mutates for *queued* sequences must re-push
    them (the old code had the same caveat, just one re-sort later).

    Admission reads the head with :meth:`peek` and removes it with
    :meth:`pop`; iteration yields the sorted view.
    """

    __slots__ = ("_key", "_heap", "_pushes")

    def __init__(self, key: Callable[[Sequence], tuple]) -> None:
        self._key = key
        self._heap: list[tuple[tuple, int, Sequence]] = []
        self._pushes = 0

    def push(self, seq: Sequence) -> None:
        heapq.heappush(self._heap, (self._key(seq), self._pushes, seq))
        self._pushes += 1

    def peek(self) -> Sequence:
        """The head — the sequence the policy admits next."""
        return self._heap[0][2]

    def pop(self) -> Sequence:
        """Remove and return the head."""
        return heapq.heappop(self._heap)[2]

    def clear(self) -> None:
        self._heap.clear()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Sequence]:
        # The push counter makes every entry distinct, so sequences are
        # never compared and ties keep insertion order (stable-sort view).
        return (entry[2] for entry in sorted(self._heap))


_FINISHED = RequestState.FINISHED
_ADMIT_INDEX = attrgetter("admit_index")


class KVMove(NamedTuple):
    """One sequence's KV blocks moved between devices, for the engine to price."""

    seq: Sequence
    src: int
    dst: int
    blocks: int


class MissedAdmission(RuntimeError):
    """An admission attempt the engine skipped would have admitted or
    rejected the waiting head (see :meth:`SchedulingPolicy.may_join`)."""


class DecodeTracker:
    """Event-driven decode progress of the running batch.

    A decoding sequence changes at two kinds of events only: its finish,
    and — under on-demand allocation — the iteration at which its next KV
    write leaves its :attr:`~repro.serving.request.Sequence.kv_writable_extent`
    (a block boundary).  Between events it emits one token per iteration, so
    instead of touching every sequence every iteration the tracker keeps:

    * :attr:`iteration`, the engine's completed-iteration counter, from
      which every tracked sequence's ``generated_tokens`` is derived (exact
      at every read, never materialized per iteration);
    * :attr:`count` / :attr:`home`, the decoding sequences in total and per
      home device (each contributes one token row per iteration);
    * :attr:`walked`, every other running sequence — the prefilling ones
      in the engine — in batch order, advanced one by one;
    * :attr:`finish_heap`, of ``(iteration, tiebreak, sequence)`` entries,
      and :attr:`finished`, the sequences :meth:`step` finished (tracked
      ones popped off the heap, walked ones that emitted their last token)
      and the scheduler has yet to evict;
    * the block boundaries, bucketed by due iteration: ``_buckets`` maps
      each iteration to the sequences armed for it, in arm order, and
      :attr:`boundary_heap` holds each bucket's iteration once (pushed when
      the bucket is created, popped with it), so its top is the next due
      boundary and a crossing costs one list append.

    Entries are invalidated lazily: one is live only while the sequence is
    tracked and its ``finish_iteration`` / ``boundary_iteration`` still
    equals the entry's iteration, so a stale top only makes the next event
    look earlier than it is.  A finish ends the engine's stretch; a due
    boundary is granted inside it
    (:meth:`ContinuousBatchingScheduler.grant_boundaries`) and ends it only
    when the grant is declined.

    Every membership change goes through the tracker: admission (the
    scheduler appends to :attr:`walked`, or calls :meth:`start` for a
    swap-resumed decoder, which decodes at once), prefill completion and
    finish (:meth:`step`), preemption (:meth:`remove`), and re-homing by
    handoff or rebalance (:meth:`rehome`).
    """

    __slots__ = (
        "iteration", "count", "home", "walked", "finish_heap", "finished",
        "_boundaries", "_buckets", "boundary_heap",
    )

    def __init__(self, num_devices: int = 1, boundaries: bool = True) -> None:
        #: Engine iterations completed so far (set by the engine).
        self.iteration = 0
        self.count = 0
        self.home = [0] * num_devices
        self.walked: list[Sequence] = []
        self.finish_heap: list[tuple[int, int, Sequence]] = []
        #: Finished by :meth:`step`, awaiting
        #: :meth:`ContinuousBatchingScheduler.evict_finished`.
        self.finished: list[Sequence] = []
        #: Whether block boundaries are armed at all (growing allocation
        #: only: a reserved extent never needs a boundary visit).
        self._boundaries = boundaries
        self._buckets: dict[int, list[Sequence]] = {}
        self.boundary_heap: list[int] = []

    def start(self, seq: Sequence) -> None:
        """Derive ``seq``'s progress from the counter from now on."""
        generated = seq._generated - self.iteration
        seq._generated = generated
        seq.decode_tracker = self
        self.count += 1
        self.home[seq.home_device] += 1
        finish = seq.request.max_new_tokens - generated
        seq.finish_iteration = finish
        # A sequence starts decode at most once per admission, so its
        # admission index breaks finish ties without comparing sequences.
        heapq.heappush(self.finish_heap, (finish, seq.admit_index, seq))
        if self._boundaries:
            self.arm((seq,))

    def arm(self, seqs: Iterable[Sequence]) -> None:
        """(Re-)schedule the boundary visits of the tracked ones of ``seqs``.

        Each is due at the iteration where ``prompt_tokens +
        generated_tokens`` reaches its recorded writable extent; called when
        decode starts and after every capacity-walk visit or grant, the only
        points an allocation policy records a new extent.  Sequences no
        longer tracked (preempted or finished meanwhile) are skipped, and
        the rest join their iteration's bucket in the order given.
        """
        buckets = self._buckets
        for seq in seqs:
            if seq.decode_tracker is not self:
                continue
            due = seq.kv_writable_extent - seq.request.prompt_tokens - seq._generated
            if due != seq.boundary_iteration:
                seq.boundary_iteration = due
                bucket = buckets.get(due)
                if bucket is None:
                    buckets[due] = [seq]
                    heapq.heappush(self.boundary_heap, due)
                else:
                    bucket.append(seq)

    def _stop(self, seq: Sequence) -> None:
        seq._generated += self.iteration
        seq.decode_tracker = None
        seq.finish_iteration = None
        seq.boundary_iteration = None
        self.count -= 1
        self.home[seq.home_device] -= 1

    def remove(self, seq: Sequence) -> None:
        """Stop tracking a sequence leaving the batch (preemption)."""
        if seq.decode_tracker is self:
            self._stop(seq)
        else:
            self.walked = [s for s in self.walked if s is not seq]

    def rehome(self, seq: Sequence, device: int) -> None:
        """Move a running sequence's home (its KV migrated to ``device``)."""
        if seq.decode_tracker is self:
            self.home[seq.home_device] -= 1
            self.home[device] += 1
        seq.home_device = device

    def load(self, chunk: int | None) -> tuple[int, tuple[int, ...] | None]:
        """Token rows the batch feeds this iteration and, on more than one
        device, their split by home device — the cost model's key."""
        tokens = self.count
        if len(self.home) == 1:
            for seq in self.walked:
                tokens += seq.tokens_this_iteration(chunk)
            return tokens, None
        home = self.home[:]
        for seq in self.walked:
            fed = seq.tokens_this_iteration(chunk)
            tokens += fed
            home[seq.home_device] += fed
        return tokens, tuple(home)

    def due(self) -> list[Sequence]:
        """Pop the tracked sequences whose block boundary is due now.

        Whole buckets are popped, earliest iteration first, each in arm
        order.  Each sequence comes back disarmed (``boundary_iteration``
        cleared, so an entry left behind by a later re-arm can never pop it
        twice); the scheduler re-arms it after its grant or capacity-walk
        visit (:meth:`arm`).  The only reader of :attr:`boundary_heap` that
        pops.
        """
        heap = self.boundary_heap
        buckets = self._buckets
        iteration = self.iteration
        due = []
        while heap and heap[0] <= iteration:
            at = heapq.heappop(heap)
            for seq in buckets.pop(at):
                if seq.decode_tracker is self and seq.boundary_iteration == at:
                    seq.boundary_iteration = None
                    due.append(seq)
        return due

    def step(
        self,
        iteration: int,
        now: float,
        prefill_chunk: int | None,
        tracer: Tracer | None = None,
        started: list[Sequence] | None = None,
    ) -> bool:
        """Record the engine's ``iteration``-th completed iteration at ``now``.

        Advances the walked sequences, starts tracking those whose prefill
        completed (appending them, in batch order, to ``started`` when
        given), and finishes the tracked ones whose last token this was
        (state and finish time only).  Every sequence it finishes is
        appended to :attr:`finished` for the scheduler to evict.  Returns
        whether anything finished.
        """
        self.iteration = iteration
        finished = self.finished
        ended = len(finished)
        walked = self.walked
        if walked:
            still: list[Sequence] = []
            for seq in walked:
                was_prefill = not seq.prefill_done
                seq.advance(now, prefill_chunk)
                if seq.state is _FINISHED:
                    finished.append(seq)  # e.g. a single-token request
                    if was_prefill and tracer is not None:
                        tracer.first_token(seq, now)
                elif seq.prefill_done:
                    if was_prefill and tracer is not None:
                        tracer.first_token(seq, now)
                    self.start(seq)
                    if started is not None:
                        started.append(seq)
                else:
                    still.append(seq)
            self.walked = still
        heap = self.finish_heap
        while heap and heap[0][0] <= iteration:
            at, _, seq = heapq.heappop(heap)
            if seq.decode_tracker is self and seq.finish_iteration == at:
                seq.state = _FINISHED
                seq.finish_time = now
                # _stop minus the boundary reset: a finished sequence never
                # re-enters decode, so its stale entries stay invalid.
                seq._generated += iteration
                seq.decode_tracker = seq.finish_iteration = None
                self.count -= 1
                self.home[seq.home_device] -= 1
                finished.append(seq)
        return len(finished) > ended

    def audit(self, running: list[Sequence]) -> None:
        """Raise unless the event state matches a recount from ``running``.

        Besides the counts and the finish schedule, every live boundary must
        sit in its iteration's bucket, and the boundary heap must hold each
        bucket's iteration exactly once and nothing else.  At a turn start
        every finish has been evicted: :attr:`finished` is empty and no
        sequence in ``running`` is FINISHED.
        """
        if self.finished:
            raise RuntimeError(
                f"finished sequences "
                f"{[seq.request.request_id for seq in self.finished]} "
                f"were never evicted"
            )
        home = [0] * len(self.home)
        walked = []
        finish = {(at, id(seq)) for at, _, seq in self.finish_heap}
        buckets = self._buckets
        keys = self.boundary_heap
        if len(keys) != len(set(keys)) or set(keys) != buckets.keys():
            raise RuntimeError(
                f"boundary heap {sorted(keys)} does not hold each bucket "
                f"{sorted(buckets)} exactly once"
            )
        boundary = {(at, id(seq)) for at, bucket in buckets.items() for seq in bucket}
        previous = -1
        for seq in running:
            if seq.admit_index <= previous:
                raise RuntimeError("running batch is out of admission order")
            previous = seq.admit_index
            if seq.state is _FINISHED:
                raise RuntimeError(
                    f"sequence {seq.request.request_id} finished but is still running"
                )
            if seq.decode_tracker is not self:
                walked.append(seq)
                continue
            req_id = seq.request.request_id
            if not seq.prefill_done or seq.state is not RequestState.RUNNING:
                raise RuntimeError(f"sequence {req_id} is decode-tracked but not decoding")
            home[seq.home_device] += 1
            finish_at = seq.request.max_new_tokens - seq._generated
            if (
                seq.finish_iteration != finish_at
                or finish_at <= self.iteration
                or (finish_at, id(seq)) not in finish
            ):
                raise RuntimeError(
                    f"sequence {req_id} finishes at iteration {finish_at} but is "
                    f"scheduled for {seq.finish_iteration}"
                )
            if self._boundaries:
                boundary_at = (
                    seq.kv_writable_extent - seq.request.prompt_tokens - seq._generated
                )
                if (
                    seq.boundary_iteration != boundary_at
                    or (boundary_at, id(seq)) not in boundary
                ):
                    raise KVCacheExhausted(
                        f"sequence {req_id} reaches its writable extent at iteration "
                        f"{boundary_at} but is armed for {seq.boundary_iteration}"
                    )
        if home != self.home or sum(home) != self.count:
            raise RuntimeError(
                f"decode counts {self.count} {self.home} disagree with the batch's "
                f"{sum(home)} {home}"
            )
        if len(walked) != len(self.walked) or any(
            a is not b for a, b in zip(walked, self.walked)
        ):
            raise RuntimeError("walked sequences are not the batch's untracked subsequence")


class ContinuousBatchingScheduler:
    """Forms the per-iteration batch over a shared KV block pool.

    ``allocation`` defaults to :class:`ReservationPolicy` over
    ``block_manager`` (the PR 1 semantics) and ``policy`` to
    :class:`FifoPriorityPolicy`, so existing two-argument construction keeps
    its exact behavior.
    """

    def __init__(
        self,
        block_manager: BlockManager,
        config: SchedulerConfig | None = None,
        *,
        allocation: AllocationPolicy | None = None,
        policy: SchedulingPolicy | None = None,
        prefill_devices: int = 0,
    ) -> None:
        self.block_manager = block_manager
        self.config = config or SchedulerConfig()
        self.allocation = allocation or ReservationPolicy(block_manager)
        if self.allocation.pool is not block_manager:
            raise ValueError("allocation policy must wrap the scheduler's block manager")
        self.policy = policy or FifoPriorityPolicy()
        # Bound through `self.policy` so a policy installed after
        # construction (tests do this) still keys future pushes.
        self.waiting = WaitingQueue(lambda seq: self.policy.queue_key(seq))
        self.running: list[Sequence] = []
        self.rejected: list[Sequence] = []
        self.finished: list[Sequence] = []
        self.stranded: list[Sequence] = []
        self.preemptions = 0
        self.recomputed_tokens = 0
        #: Swap-to-host preemptions and the blocks they parked in host memory
        #: (``preempt_mode == "swap"`` only; both stay 0 under recompute).
        self.swaps = 0
        self.swapped_blocks = 0
        #: Decode progress of the running batch (see :class:`DecodeTracker`).
        self.decode = DecodeTracker(
            len(getattr(block_manager, "pools", (block_manager,))),
            boundaries=self.allocation.grows,
        )
        self._admit_counter = 0
        #: Disaggregated pool split (``None`` = colocated): the first
        #: ``prefill_devices`` devices of a sharded block manager prefill, the
        #: rest decode.  Only the scheduler steers its ``admit_devices``.
        self.prefill_pool: tuple[int, ...] | None = None
        self.decode_pool: tuple[int, ...] | None = None
        if prefill_devices:
            self.prefill_pool = tuple(range(prefill_devices))
            self.decode_pool = tuple(range(prefill_devices, len(block_manager.pools)))
            block_manager.admit_devices = self.prefill_pool
        self._enqueue_counter = 0
        #: Current expert-placement epoch, stamped onto sequences at
        #: admission.  The engine's overlap mode bumps it at every dynamic
        #: re-placement; it stays 0 everywhere else.
        self.placement_epoch = 0
        #: Optional telemetry sink, attached by the engine's ``run`` when
        #: telemetry is enabled.  Emits the request lifecycle events
        #: (submit/reject/admit/preempt/finish/strand); every call is
        #: ``is not None``-guarded so the disabled path stays free.
        self.tracer: Tracer | None = None
        #: Audit every sequence :meth:`ensure_capacity` skips (set by the
        #: engine from ``EngineConfig.debug_checks``); never changes the run.
        self.debug_checks = False

    # -- intake ------------------------------------------------------------------
    def add_request(self, request: Request) -> Sequence:
        """Enqueue a request; rejects immediately if it could never fit."""
        seq = Sequence(request=request, enqueue_index=self._enqueue_counter)
        self._enqueue_counter += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.submit(request)
        # Under disaggregation the intake bound is two-sided: the request
        # must fit a prefill device (``fits_at_all`` checks the admissible
        # pools) *and* its full decoded extent must fit some decode device,
        # or the post-prefill handoff could never land anywhere and the
        # sequence would bounce between preemption and re-prefill forever.
        fits = self.allocation.fits_at_all(request)
        if fits and self.decode_pool is not None:
            fits = any(
                self.block_manager.pools[d].fits_at_all(request.total_tokens)
                for d in self.decode_pool
            )
        if not fits:
            seq.reject()
            self.rejected.append(seq)
            if tracer is not None:
                tracer.reject(seq, request.arrival_time)
            return seq
        self.waiting.push(seq)
        return seq

    # -- iteration boundary ------------------------------------------------------
    def admit(self, now: float) -> list[Sequence]:
        """Join waiting requests to the batch at an iteration boundary."""
        admitted: list[Sequence] = []
        tracer = self.tracer
        while self.waiting and self.policy.may_join(self.running, self.config):
            head = self.waiting.peek()
            if self.decode_pool is not None:
                self._steer(head)
            device = self.allocation.admit_device(head)
            if device is not None:
                self.waiting.pop()
                # The fit test's device is where the allocation lands: the
                # pool picks the least-loaded fitting device (always 0 on a
                # single pool), and the engine charges this sequence's
                # attention tokens to it.  A preempted sequence may re-home
                # on resume.
                self.allocation.admit(head, device)
                head.home_device = device
                head.placement_epoch = self.placement_epoch
                head.admit(now)
                head.admit_index = self._admit_counter
                self._admit_counter += 1
                self.running.append(head)
                if head.prefill_done:
                    self.decode.start(head)  # swap-resumed mid-decode
                else:
                    self.decode.walked.append(head)
                admitted.append(head)
                if tracer is not None:
                    # After allocation.admit, so the KV alloc/share event
                    # precedes the admit event it belongs to.
                    tracer.admit(head, now)
            elif self._sheds(head):
                self.waiting.pop()
                head.reject()
                self.rejected.append(head)
                if tracer is not None:
                    tracer.reject(head, now)
            else:
                # Queue mode (and previously-admitted preempted sequences in
                # either mode): keep FIFO order — do not skip the head to
                # admit a smaller request behind it (that is how starvation
                # starts).
                break
        if self.decode_pool is not None:
            # Leave the restriction on the prefill pool — the resting state
            # intake's ``fits_at_all`` and the engine's capacity checks see.
            self.block_manager.admit_devices = self.prefill_pool
        return admitted

    def _steer(self, head: Sequence) -> None:
        """Restrict admission to the pool ``head`` must land on (disaggregated).

        A swapped-out decode-phase sequence resumes in the decode pool (its
        restored KV lives where decode runs), while fresh arrivals and
        recompute resumes — which (re-)prefill — go to the prefill pool.
        """
        self.block_manager.admit_devices = (
            self.decode_pool if head.prefill_done else self.prefill_pool
        )

    def _sheds(self, head: Sequence) -> bool:
        """Whether ``reject`` mode load-sheds a head that does not fit now."""
        return self.config.admission == "reject" and head.preemptions == 0

    def audit_skipped_admit(self) -> None:
        """Raise :class:`MissedAdmission` if :meth:`admit` would act now.

        A side-effect-free dry run of :meth:`admit`'s first decision, for
        an iteration boundary at which the engine skips the call because
        nothing that could change its outcome happened since the last one.
        """
        if not self.waiting or not self.policy.may_join(self.running, self.config):
            return
        head = self.waiting.peek()
        if self.decode_pool is not None:
            self._steer(head)
        fits = self.allocation.admit_device(head) is not None
        if self.decode_pool is not None:
            self.block_manager.admit_devices = self.prefill_pool
        if fits or self._sheds(head):
            raise MissedAdmission(
                f"admission skipped at an iteration boundary would have "
                f"{'admitted' if fits else 'rejected'} request "
                f"{head.request.request_id}"
            )

    def ensure_capacity(self) -> list[Sequence]:
        """Secure KV blocks for every token the next iteration will append.

        Under reservation allocation this is a no-op.  Under on-demand
        allocation, the running sequences whose next write
        (``prompt_tokens + generated_tokens + 1``) lies past their recorded
        :attr:`~repro.serving.request.Sequence.kv_writable_extent` are due;
        every other sequence writes into a private block it already holds,
        needs nothing, and is skipped (with ``block_size`` 16 a decoding
        sequence is due about once in 16 iterations).  The due sequences
        are served in precedence order, in two steps:

        1. *Bulk grant* (:meth:`_grant`, which the engine also reaches
           inside a stretch through :meth:`grant_boundaries`).  The
           allocation policy
           (:meth:`~repro.serving.kv_cache.AllocationPolicy.grow_due`) has
           the block manager plan every due sequence's growth in one pass
           (a decoding crossing is one block) and, when no write needs a
           copy-on-write block and every device's summed growth fits its
           free blocks, pop each block straight into its table in a second
           pass.  Block ids, tables and trace events are those of step 2,
           which would preempt nothing on such an iteration.
        2. *Fallback walk.*  Otherwise the sequences are visited one by one
           (:meth:`_walk_capacity`).  When the pool cannot cover a deficit,
           the scheduling policy picks victims from the lower-precedence
           tail of the *whole* batch, whose blocks are freed and who requeue
           for recompute-on-resume.  A victim that shares prefix blocks
           returns only its private ones (the policy therefore prefers
           low-sharing victims), so several preemptions may be needed to
           cover one deficit.  A sequence preempts *itself* only when no
           lower-precedence victim remains (it is the tail).

        Placement-awareness: a sequence's KV is pinned to its home device,
        so the deficit is measured against *that device's* free blocks and
        victims are drawn only from sequences homed there — preempting a
        sequence on another device frees blocks the grower can never use.
        On a single-device pool every home is 0 and this reduces exactly to
        the pre-sharding behavior.

        Returns the sequences preempted at this boundary.
        """
        if not self.allocation.grows or not self.running:
            return []
        if self.debug_checks:
            self._audit_writable_extents()
            self.decode.audit(self.running)
        due = self._capacity_due()
        if not due:
            return []
        preempted: list[Sequence] = []
        if not self._grant(due):
            preempted = self._walk_capacity(sorted(due, key=self.policy.queue_key))
        self.decode.arm(due)  # the visits may have recorded new extents
        return preempted

    def grant_boundaries(self) -> bool:
        """Grant the KV block boundaries due inside a pure-decode stretch.

        The engine calls this between two iterations of a stretch whenever
        the tracker's boundary heap has come due, instead of ending the
        stretch there.  It is :meth:`ensure_capacity` at a turn start with
        nothing prefilling: the same audits, then the same bulk grant.
        Returns ``False`` when the grant would need a copy-on-write block or
        a preemption: the due sequences are re-armed untouched, the stretch
        ends, and the next turn's :meth:`ensure_capacity` walks them.
        """
        if self.debug_checks:
            self._audit_writable_extents()
            self.decode.audit(self.running)
        due = self.decode.due()
        granted = self._grant(due)
        self.decode.arm(due)
        if granted and self.debug_checks:
            self.audit_skipped_admit()  # admission is skipped here as well
        return granted

    def _grant(self, due: list[Sequence]) -> bool:
        """The bulk grant: offer ``due`` in precedence order to the
        allocation policy's
        :meth:`~repro.serving.kv_cache.AllocationPolicy.grow_due`."""
        return self.allocation.grow_due(
            sorted(due, key=self.policy.queue_key), self.config.prefill_chunk
        )

    def _walk_capacity(self, ordered: list[Sequence]) -> list[Sequence]:
        """Visit due sequences one by one, preempting to cover deficits."""
        preempted: list[Sequence] = []
        chunk = self.config.prefill_chunk
        for seq in ordered:
            if seq.state is not RequestState.RUNNING:
                continue  # already preempted at this boundary
            deficit = self.allocation.blocks_deficit(seq, chunk)
            home = seq.home_device
            while deficit > self.block_manager.free_blocks_on(home):
                candidates = [
                    s
                    for s in self.running
                    if s is not seq
                    and s.home_device == home
                    and self.policy.queue_key(s) > self.policy.queue_key(seq)
                ]
                victim = self.policy.select_victim(candidates, self.block_manager)
                if victim is None:
                    victim = seq  # tail of the batch: yield its own blocks
                self.preempt(victim)
                preempted.append(victim)
                if victim is seq:
                    deficit = 0
                    break
            if deficit > 0:
                self.allocation.grow(seq, deficit)
        return preempted

    def _capacity_due(self) -> list[Sequence]:
        """Running sequences whose next write may need a block, in batch order.

        A sequence whose next write stays inside its recorded writable
        extent lands in a private, unregistered block it already holds: no
        growth, copy-on-write or un-registration can be due, so its deficit
        is 0 and the walk leaves it out.  Decoding sequences come off the
        tracker's block-boundary heap; only the walked (prefilling) ones are
        tested here.
        """
        tracker = self.decode
        due = [
            seq
            for seq in tracker.walked
            if seq.request.prompt_tokens + seq.generated_tokens >= seq.kv_writable_extent
        ]
        boundary = tracker.due()
        if boundary:
            due += boundary
            due.sort(key=_ADMIT_INDEX)
        return due

    def _audit_writable_extents(self) -> None:
        """Raise unless every sequence the capacity walk skips may write in
        place, and every recorded extent ends its sequence's table.

        The second check is what lets ``grow_due`` grant a decoding
        sequence's block crossing (write position at a nonzero extent) one
        fresh block without reading its table.  Every sequence's
        ``home_device`` must also be the block manager's home for it: the
        bulk grant finds the table there.
        """
        block_manager = self.block_manager
        block_size = block_manager.block_size
        for seq in self.running:
            seq_id = seq.request.request_id
            if seq.home_device != block_manager.home_device(seq_id):
                raise KVCacheExhausted(
                    f"sequence {seq_id} is homed on device {seq.home_device} but "
                    f"its blocks are on device {block_manager.home_device(seq_id)}"
                )
            write_pos = seq.request.prompt_tokens + seq.generated_tokens
            extent = seq.kv_writable_extent
            if write_pos < extent and not block_manager.writable_in_place(seq_id, write_pos):
                raise KVCacheExhausted(
                    f"sequence {seq_id} skipped at token {write_pos} "
                    f"(writable extent {extent}) but its write block "
                    f"is missing, shared or prefix-registered"
                )
            if extent and extent != block_manager.blocks_held(seq_id) * block_size:
                raise KVCacheExhausted(
                    f"sequence {seq_id} records writable extent {extent} but holds "
                    f"{block_manager.blocks_held(seq_id)} blocks of {block_size} tokens"
                )

    def preempt(self, victim: Sequence) -> None:
        """Reclaim a running sequence's blocks and requeue it.

        ``preempt_mode`` decides what happens to the victim's KV state:
        ``"recompute"`` discards it (prefill state resets, the resume pass
        re-prefills every token written so far); ``"swap"`` parks it in host
        memory — the sequence keeps its prefill state, and the engine prices
        the swap-in over :attr:`DeviceSpec.host_bandwidth` on re-admission.
        Used by the capacity walk and by :meth:`handoff`'s fallback alike.
        """
        self.decode.remove(victim)
        swap = self.config.preempt_mode == "swap"
        held = self.block_manager.blocks_held(victim.request.request_id) if swap else 0
        self.allocation.release(victim)
        if swap:
            swapped = victim.swap_out()
            self.swaps += 1
            self.swapped_blocks += held
        else:
            recomputed = victim.preempt()
            self.recomputed_tokens += recomputed
        self.preemptions += 1
        victim.requeue()
        self.running.remove(victim)
        self.waiting.push(victim)
        if self.tracer is not None:
            # After allocation.release: the KV free event precedes the
            # preempt/swap event, mirroring admission's alloc-then-admit order.
            if swap:
                self.tracer.swap_out(victim, held, swapped)
            else:
                self.tracer.preempt(victim, recomputed)

    def handoff(self, seq: Sequence) -> KVMove | None:
        """Move a sequence whose prefill just completed onto the decode pool.

        The destination is the decode device with the most free blocks that
        holds the whole table (ties: the first in pool order).  When none
        fits, the sequence is preempted off its prefill device instead to
        retry admission later, and ``None`` is returned.
        """
        assert self.decode_pool is not None, "handoff needs a disaggregated pool split"
        blocks = self.block_manager.blocks_held(seq.request.request_id)
        free = {d: self.block_manager.free_blocks_on(d) for d in self.decode_pool}
        dst = max((d for d in free if free[d] >= blocks), key=free.__getitem__, default=None)
        if dst is None:
            self.preempt(seq)
            return None
        return self._move(seq, dst)

    def rebalance(self) -> KVMove | None:
        """Make the decode-pool migration :meth:`SchedulingPolicy.select_rebalance`
        picks, if any (never on a colocated or one-device decode pool)."""
        decode_pool = self.decode_pool
        if decode_pool is None or len(decode_pool) < 2:
            return None
        move = self.policy.select_rebalance(self.running, self.block_manager, decode_pool)
        if move is None:
            return None
        return self._move(*move)

    def _move(self, seq: Sequence, dst: int) -> KVMove:
        """Migrate ``seq``'s blocks to ``dst`` and re-home it there (a
        refused migration raises first, leaving both untouched)."""
        src = seq.home_device
        blocks = self.block_manager.migrate(seq.request.request_id, src, dst)
        self.decode.rehome(seq, dst)
        return KVMove(seq, src, dst, blocks)

    def drain_stranded(self) -> list[Sequence]:
        """Move every still-waiting sequence to the ``stranded`` terminal state.

        Called by the engine when the run is over (no arrivals left, nothing
        running) but the waiting queue is not empty — which a conservative
        custom :class:`SchedulingPolicy` can cause.  Without this the
        sequences would vanish from the report and ``num_requests`` would
        undercount the submitted work.
        """
        tracer = self.tracer
        for seq in self.waiting:
            seq.strand()
            self.stranded.append(seq)
            if tracer is not None:
                tracer.strand(seq)
        self.waiting.clear()
        return self.stranded

    def evict_finished(self) -> list[Sequence]:
        """Remove finished sequences from the batch and free their KV blocks.

        The finishers are the ones :meth:`DecodeTracker.step` recorded plus
        any walked sequence a caller advanced to FINISHED by hand; nothing
        scans the batch.  They are released in admission order — the batch
        order — each one removed from ``running`` by identity, and are
        returned in that order.
        """
        tracker = self.decode
        done = tracker.finished
        tracker.finished = []
        walked = tracker.walked
        if walked:
            by_hand = [s for s in walked if s.state is _FINISHED]
            if by_hand:
                tracker.walked = [s for s in walked if s.state is not _FINISHED]
                done += by_hand
        if len(done) > 1:
            done.sort(key=_ADMIT_INDEX)
        running = self.running  # mutated in place: the engine aliases it
        release = self.allocation.release
        tracer = self.tracer
        for seq in done:
            running.remove(seq)
            if tracer is not None:
                tracer.finish(seq)  # finish event first, then its KV free
            release(seq)
        self.finished += done
        return done

    # -- queries -----------------------------------------------------------------
    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.running)

    def batch_tokens(self) -> int:
        """Token rows the current batch contributes to the next iteration."""
        chunk = self.config.prefill_chunk
        return sum(seq.tokens_this_iteration(chunk) for seq in self.running)

"""Request and sequence abstractions for the serving engine.

A :class:`Request` is what a client submits: an arrival time, a prompt length,
a decode budget, and an optional priority class.  The engine wraps each
admitted request in a :class:`Sequence`, which tracks the phases of its
lifetime on the simulated device:

* **prefill** — the prompt is processed over one or more continuous-batching
  iterations.  By default the whole prompt is fed in a single iteration
  (Orca-style); with chunked prefill (Sarathi-style, ``prefill_chunk``) at
  most ``chunk`` prompt tokens are fed per iteration, piggybacked with the
  decode tokens of other sequences.  The iteration that finishes prefill also
  emits the first output token, which defines the request's TTFT (time to
  first token);
* **decode** — each subsequent iteration the sequence participates in emits
  one token, until ``max_new_tokens`` have been produced; the average gap
  between those tokens is the TPOT (time per output token);
* **preempted** (on-demand allocation only) — the scheduler reclaimed the
  sequence's KV blocks to let a higher-precedence sequence grow.  The
  sequence is requeued and, on re-admission, *recomputes*: its prefill extent
  becomes ``prompt + tokens generated so far`` (the already-delivered tokens
  are re-prefilled, vLLM's recompute-on-resume), after which decode continues
  from where it left off.  TTFT keeps the original first delivery.

All timestamps are in simulated seconds on the discrete-event clock of
:class:`repro.serving.engine.ServingEngine`; nothing here reads wall time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["RequestState", "Request", "Sequence"]


class RequestState(enum.Enum):
    """Lifecycle of a request inside the serving engine."""

    QUEUED = "queued"        # waiting for admission (KV blocks / batch slot)
    RUNNING = "running"      # member of the current continuous batch
    PREEMPTED = "preempted"  # KV blocks reclaimed; awaiting requeue
    FINISHED = "finished"    # produced all of its tokens
    REJECTED = "rejected"    # admission control refused it
    STRANDED = "stranded"    # still waiting when the engine ran out of work


@dataclass(frozen=True, slots=True)
class Request:
    """One client request of the simulated workload."""

    request_id: int
    arrival_time: float
    prompt_tokens: int
    max_new_tokens: int
    #: Lower value = more urgent.  The scheduler is FIFO *within* a priority
    #: class and strict-priority across classes.
    priority: int = 0
    #: Identity of a shared prompt prefix (e.g. one of K system prompts).
    #: Requests declaring the same ``prefix_id`` assert that their first
    #: ``prefix_tokens`` prompt tokens are identical, so their KV blocks may
    #: be mapped read-only by every concurrent holder (prefix caching).
    prefix_id: int | None = None
    #: Leading prompt tokens drawn from the shared prefix (<= prompt_tokens).
    prefix_tokens: int = 0

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0:
            raise ValueError("prompt_tokens must be positive")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if self.prefix_id is None:
            if self.prefix_tokens != 0:
                raise ValueError("prefix_tokens requires a prefix_id")
        else:
            if self.prefix_id < 0:
                raise ValueError("prefix_id must be non-negative")
            if not 0 < self.prefix_tokens <= self.prompt_tokens:
                raise ValueError(
                    "prefix_tokens must lie in [1, prompt_tokens] when a "
                    "prefix_id is given"
                )

    @property
    def total_tokens(self) -> int:
        """KV-cache footprint of the fully-decoded request, in tokens."""
        return self.prompt_tokens + self.max_new_tokens


@dataclass(slots=True)
class Sequence:
    """Engine-side state of one request."""

    request: Request
    state: RequestState = RequestState.QUEUED
    #: Order in which the scheduler first saw the request (dense, per engine
    #: run); ties on priority are broken by this, making admission FIFO.  A
    #: preempted sequence keeps its index, so it rejoins the queue ahead of
    #: every later arrival of its priority class (no starvation by churn).
    enqueue_index: int = 0
    prefill_done: bool = False
    #: Prompt tokens fed so far in the current (re-)prefill pass.
    prefill_progress: int = 0
    #: Prefix tokens whose KV was resident at the last admission (prefix
    #: cache hit); they are skipped by the current prefill pass.
    prefix_hit_tokens: int = 0
    #: Generated tokens folded into the prefill extent by recompute-on-resume.
    recompute_base: int = 0
    generated_tokens: int = 0
    #: Times this sequence was preempted (on-demand allocation only).
    preemptions: int = 0
    #: Tokens of KV state parked in host memory by swap-to-host preemption
    #: (``--preempt-mode swap``).  Non-zero only between :meth:`swap_out` and
    #: the engine's swap-in on re-admission; the engine prices the restore as
    #: ``blocks(swapped_tokens)`` over :attr:`DeviceSpec.host_bandwidth` and
    #: then clears it.  Always 0 under recompute preemption.
    swapped_tokens: int = 0
    #: Device index of the pool holding this sequence's KV blocks (set by the
    #: scheduler at each admission; a preempted sequence may re-home).  Always
    #: 0 on a single-device engine.
    home_device: int = 0
    #: Expert-placement epoch under which the sequence was (last) admitted
    #: (stamped by the scheduler).  The engine's overlap mode bumps the epoch
    #: at every dynamic expert re-placement, so this records which cluster
    #: layout served the request; always 0 outside overlap mode.
    placement_epoch: int = 0
    #: Engine-internal: iteration index at which this sequence's decode
    #: completes, scheduled by the event-driven fast path when prefill
    #: finishes (``None`` outside the fast path / after the finish event).
    finish_iteration: int | None = None
    #: Allocation-internal: token extent the next KV writes are known to need
    #: no block for — every block from the write position to the end of the
    #: block table is private and unregistered.  Recorded by
    #: :class:`~repro.serving.kv_cache.OnDemandPolicy` once the write block is
    #: secured, reset to 0 (unknown) on admission and release; the scheduler's
    #: capacity walk skips the sequence while its next write stays inside it.
    kv_writable_extent: int = 0
    admission_time: float | None = None
    first_token_time: float | None = None
    finish_time: float | None = None

    # -- phase queries -----------------------------------------------------------
    @property
    def is_prefill(self) -> bool:
        return self.state is RequestState.RUNNING and not self.prefill_done

    @property
    def is_finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def prefill_extent(self) -> int:
        """Tokens the current prefill pass must process before decode.

        The prompt for a fresh sequence; ``prompt + generated-so-far`` for a
        sequence resuming from preemption (recompute).
        """
        return self.request.prompt_tokens + self.recompute_base

    @property
    def remaining_prefill(self) -> int:
        return max(0, self.prefill_extent - self.prefill_progress)

    def tokens_this_iteration(self, prefill_chunk: int | None = None) -> int:
        """Token rows this sequence contributes to the next iteration's GEMMs."""
        if self.state is not RequestState.RUNNING:
            return 0
        if not self.prefill_done:
            remaining = self.remaining_prefill
            return remaining if prefill_chunk is None else min(prefill_chunk, remaining)
        return 1

    def emits_token_this_iteration(self, prefill_chunk: int | None = None) -> bool:
        """Whether the next iteration appends a generated token's KV state."""
        if self.state is not RequestState.RUNNING:
            return False
        if self.prefill_done:
            return True
        return self.tokens_this_iteration(prefill_chunk) >= self.remaining_prefill

    def kv_tokens_written(self) -> int:
        """Tokens of KV state materialized so far (on-demand accounting)."""
        if not self.prefill_done:
            return self.prefill_progress
        return self.request.prompt_tokens + self.generated_tokens

    def kv_tokens_held(self) -> int:
        """Tokens of KV capacity the sequence holds under *reservation*.

        Reservation-based admission reserves the full ``prompt +
        max_new_tokens`` extent up front, so the held capacity is the
        request's total extent for its whole running life, not the tokens
        written so far.  :class:`~repro.serving.kv_cache.OnDemandPolicy`
        tracks actual holdings through the block pool instead.
        """
        if self.state is not RequestState.RUNNING:
            return 0
        return self.request.total_tokens

    def apply_prefix_hit(self, hit_tokens: int) -> None:
        """Skip prefill for prefix tokens whose KV is already resident.

        Called by the allocation policy at admission time, after the block
        table has mapped the resident shared blocks.  At least one prompt
        token is always recomputed — the iteration that finishes prefill
        must still run to emit the first output token (vLLM recomputes the
        last prompt token of a full-prompt cache hit for the same reason).
        """
        if hit_tokens < 0:
            raise ValueError("hit_tokens must be non-negative")
        self.prefix_hit_tokens = min(hit_tokens, self.prefill_extent - 1)
        self.prefill_progress = self.prefix_hit_tokens

    # -- lifecycle transitions ---------------------------------------------------
    def admit(self, now: float) -> None:
        if self.state is not RequestState.QUEUED:
            raise RuntimeError(f"cannot admit a {self.state.value} sequence")
        self.state = RequestState.RUNNING
        if self.admission_time is None:
            self.admission_time = now

    def reject(self) -> None:
        if self.state is not RequestState.QUEUED:
            raise RuntimeError(f"cannot reject a {self.state.value} sequence")
        self.state = RequestState.REJECTED

    def strand(self) -> None:
        """Terminal state for a request still queued when the run ends.

        A scheduling policy that refuses admission (or a batch that never
        drains) can leave requests in the waiting queue when the engine has
        no arrivals and no running work left; the engine surfaces them as
        ``stranded`` instead of silently dropping them from the report.
        """
        if self.state is not RequestState.QUEUED:
            raise RuntimeError(f"cannot strand a {self.state.value} sequence")
        self.state = RequestState.STRANDED

    def preempt(self) -> int:
        """Drop to PREEMPTED, discarding in-flight KV state.

        Returns the tokens of KV work that must be recomputed on resume:
        the prompt tokens prefetched so far plus every generated token (they
        are all re-prefilled by the resumed sequence's recompute pass).
        """
        if self.state is not RequestState.RUNNING:
            raise RuntimeError(f"cannot preempt a {self.state.value} sequence")
        recomputed = self.kv_tokens_written()
        self.state = RequestState.PREEMPTED
        self.recompute_base = self.generated_tokens
        self.prefill_progress = 0
        self.prefix_hit_tokens = 0  # re-admission re-queries the prefix index
        self.prefill_done = False
        self.preemptions += 1
        return recomputed

    def swap_out(self) -> int:
        """Drop to PREEMPTED, parking in-flight KV state in host memory.

        The swap-to-host alternative to :meth:`preempt`: the KV written so
        far survives (copied to host over PCIe by the engine's accounting),
        so no prefill state is reset — on re-admission the sequence pays a
        swap-in transfer instead of a recompute pass and resumes exactly
        where it stopped.  Returns the tokens of KV state swapped out.
        """
        if self.state is not RequestState.RUNNING:
            raise RuntimeError(f"cannot swap out a {self.state.value} sequence")
        self.swapped_tokens = self.kv_tokens_written()
        self.state = RequestState.PREEMPTED
        self.preemptions += 1
        return self.swapped_tokens

    def requeue(self) -> None:
        if self.state is not RequestState.PREEMPTED:
            raise RuntimeError(f"cannot requeue a {self.state.value} sequence")
        self.state = RequestState.QUEUED

    def advance(self, now: float, prefill_chunk: int | None = None) -> None:
        """Record the outcome of one iteration this sequence participated in."""
        if self.state is not RequestState.RUNNING:
            raise RuntimeError(f"cannot advance a {self.state.value} sequence")
        if not self.prefill_done:
            self.prefill_progress += self.tokens_this_iteration(prefill_chunk)
            if self.prefill_progress < self.prefill_extent:
                return  # mid-chunk: no token emitted this iteration
            # The iteration that finishes (re-)prefill also produces one new token.
            self.prefill_done = True
            self.generated_tokens += 1
            if self.first_token_time is None:
                self.first_token_time = now
        else:
            self.generated_tokens += 1
        if self.generated_tokens >= self.request.max_new_tokens:
            self.state = RequestState.FINISHED
            self.finish_time = now

    # -- metrics -----------------------------------------------------------------
    @property
    def ttft(self) -> float | None:
        """Time from arrival to the first output token (includes queueing)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.request.arrival_time

    @property
    def tpot(self) -> float | None:
        """Mean inter-token gap of the decode phase.

        Defined over the ``generated_tokens - 1`` gaps after the first token;
        a single-token request has no decode gap and reports 0.
        """
        if self.finish_time is None or self.first_token_time is None:
            return None
        if self.generated_tokens <= 1:
            return 0.0
        return (self.finish_time - self.first_token_time) / (self.generated_tokens - 1)

    @property
    def e2e_latency(self) -> float | None:
        """Arrival to last token."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.request.arrival_time

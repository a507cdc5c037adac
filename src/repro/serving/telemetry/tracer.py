"""Structured lifecycle tracing on the engine's simulated clock.

One :class:`Tracer` collects a flat, strictly ordered stream of *events*
while the engine runs.  Every timestamp is a simulated second read off the
discrete-event clock — nothing here reads wall time (DET001), so the event
stream of a (backend, workload, config) triple is as reproducible as the
serving report itself: every iteration of a loop turn's stretch emits
exactly the events stepping it alone would, so the stream is **byte
identical** to the reference loop that simulates every iteration (``tests/serving/test_telemetry.py``
pins this).

Event catalogue (``kind`` field; every event also carries ``t`` or
``t0``/``t1`` sim-second timestamps):

=============  =================================================================
``submit``     request entered the scheduler (``t`` = arrival time), with
               ``prompt``/``new`` token budgets, ``priority``, and the shared
               prefix declaration when present.
``reject``     admission control refused the request — at intake (could never
               fit) or as load shedding in ``reject`` mode.
``admit``      request joined the running batch: home ``device``, placement
               ``epoch``, and how often it was ``preempted`` before (>0 marks
               a recompute-on-resume re-admission).
``first_token``  the iteration that finished (re-)prefill emitted the first
               output token (``t`` − arrival = TTFT); ``prefix_hit`` counts
               prompt tokens skipped via the prefix cache.
``finish``     last token produced; ``new`` = tokens generated.
``preempt``    scheduler reclaimed the sequence's KV blocks; ``recomputed``
               tokens must be re-prefilled on resume.
``swap``       swap-to-host preemption (``--preempt-mode swap``): ``op`` =
               ``out`` parks ``blocks`` (= ``tokens`` of KV) in host memory
               at ``t``; ``op`` = ``in`` restores them on re-admission over
               the ``t0``→``t1`` span, with the exact stall seconds ``s``
               (carried explicitly: ``(t0 + s) - t0`` is not IEEE-exact).
``handoff``    disaggregated prefill→decode KV handoff: ``blocks`` moved from
               device ``src`` to ``dst`` over ``t0``→``t1``, stall ``s``.
``migrate``    load-triggered decode-pool rebalance migration; same fields
               and hook (:meth:`Tracer.transfer`) as ``handoff``.
``strand``     request still queued when the run ended (conservative custom
               policies only).
``kv``         block-pool movement: ``op`` ∈ ``alloc`` (reservation),
               ``share`` (prefix-hit admission, with ``hit_blocks``),
               ``grow`` (on-demand growth), ``cow`` (copy-on-write copy),
               ``free`` (eviction/preemption release) — each with the
               ``device``, the ``blocks`` moved and the pool's ``free``
               count after the move.
``iter``       one engine iteration: index ``i``, ``t0``→``t1`` clock span,
               batch ``tokens`` and size; multi-device iterations add the
               per-device ``compute`` seconds plus the ``max``/``mean``
               compute and ``remote`` all-to-all tokens the report's
               straggler accounting accumulates (copied float-for-float from
               the engine's memo, so summing them replays the report's
               totals exactly); overlap mode adds ``hidden``/``comm``
               seconds, and a dynamic re-placement adds its migration
               ``stall``.
=============  =================================================================

The engine keeps :attr:`Tracer.now` at the current simulated clock while
telemetry is enabled; hooks that have no clock of their own (KV moves,
preemptions, stranding) timestamp with it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..cost import IterationCost
    from ..request import Request, Sequence

__all__ = ["TRACE_SCHEMA", "Tracer"]

#: Schema tag of the raw JSONL trace format (header line of every file).
TRACE_SCHEMA = "milo-trace/v1"


class Tracer:
    """Collects the structured event stream of one engine run.

    Attach a *fresh* tracer per run via
    :meth:`~repro.serving.engine.ServingEngine.enable_telemetry`; events
    accumulate in :attr:`events` in emission order and are never reordered.
    """

    __slots__ = ("events", "now", "meta")

    def __init__(self, meta: dict[str, Any] | None = None) -> None:
        #: The raw event stream, in emission order.
        self.events: list[dict[str, Any]] = []
        #: Current simulated clock, maintained by the engine while telemetry
        #: is enabled; hooks without a clock argument timestamp with it.
        self.now: float = 0.0
        #: Run metadata (model, backend, device names …) embedded in the
        #: JSONL header and the Chrome-trace export.
        self.meta: dict[str, Any] = dict(meta) if meta else {}

    # -- request lifecycle -------------------------------------------------------
    def submit(self, request: Request) -> None:
        event: dict[str, Any] = {
            "kind": "submit",
            "t": request.arrival_time,
            "req": request.request_id,
            "prompt": request.prompt_tokens,
            "new": request.max_new_tokens,
            "priority": request.priority,
        }
        if request.prefix_id is not None:
            event["prefix_id"] = request.prefix_id
            event["prefix_tokens"] = request.prefix_tokens
        self.events.append(event)

    def reject(self, seq: Sequence, t: float) -> None:
        self.events.append(
            {"kind": "reject", "t": t, "req": seq.request.request_id}
        )

    def admit(self, seq: Sequence, t: float) -> None:
        self.events.append(
            {
                "kind": "admit",
                "t": t,
                "req": seq.request.request_id,
                "device": seq.home_device,
                "epoch": seq.placement_epoch,
                "preempted": seq.preemptions,
            }
        )

    def first_token(self, seq: Sequence, t: float) -> None:
        self.events.append(
            {
                "kind": "first_token",
                "t": t,
                "req": seq.request.request_id,
                "prefix_hit": seq.prefix_hit_tokens,
            }
        )

    def finish(self, seq: Sequence) -> None:
        self.events.append(
            {
                "kind": "finish",
                "t": seq.finish_time,
                "req": seq.request.request_id,
                "new": seq.generated_tokens,
            }
        )

    def preempt(self, seq: Sequence, recomputed: int) -> None:
        self.events.append(
            {
                "kind": "preempt",
                "t": self.now,
                "req": seq.request.request_id,
                "recomputed": recomputed,
            }
        )

    def swap_out(self, seq: Sequence, blocks: int, tokens: int) -> None:
        self.events.append(
            {
                "kind": "swap",
                "op": "out",
                "t": self.now,
                "req": seq.request.request_id,
                "blocks": blocks,
                "tokens": tokens,
            }
        )

    def swap_in(self, seq: Sequence, t0: float, t1: float, blocks: int, s: float) -> None:
        self.events.append(
            {
                "kind": "swap",
                "op": "in",
                "t0": t0,
                "t1": t1,
                "req": seq.request.request_id,
                "blocks": blocks,
                "s": s,
            }
        )

    def transfer(
        self,
        kind: str,
        seq: Sequence,
        t0: float,
        t1: float,
        src: int,
        dst: int,
        blocks: int,
        s: float,
    ) -> None:
        """A KV move between devices, ``kind`` ``"handoff"`` or ``"migrate"``."""
        self.events.append(
            {
                "kind": kind,
                "t0": t0,
                "t1": t1,
                "req": seq.request.request_id,
                "src": src,
                "dst": dst,
                "blocks": blocks,
                "s": s,
            }
        )

    def strand(self, seq: Sequence) -> None:
        self.events.append(
            {"kind": "strand", "t": self.now, "req": seq.request.request_id}
        )

    # -- KV block pool -----------------------------------------------------------
    def kv(
        self,
        op: str,
        seq_id: int,
        blocks: int,
        device: int,
        free: int,
        hit_blocks: int | None = None,
    ) -> None:
        event: dict[str, Any] = {
            "kind": "kv",
            "t": self.now,
            "op": op,
            "seq": seq_id,
            "device": device,
            "blocks": blocks,
            "free": free,
        }
        if hit_blocks is not None:
            event["hit_blocks"] = hit_blocks
        self.events.append(event)

    # -- iterations --------------------------------------------------------------
    def iteration(
        self,
        i: int,
        t0: float,
        t1: float,
        tokens: int,
        batch: int,
        cost: IterationCost | None = None,
        stall: float = 0.0,
    ) -> None:
        """One engine iteration of a loop turn's stretch (byte-identical
        to the event of simulating that iteration on its own).

        ``cost`` is the iteration's price on a multi-device engine (``None``
        on one device): the same record the report totals accumulate."""
        event: dict[str, Any] = {
            "kind": "iter",
            "i": i,
            "t0": t0,
            "t1": t1,
            "tokens": tokens,
            "batch": batch,
        }
        if cost is not None:
            event["compute"] = list(cost.per_device)
            event["max"] = cost.max_compute
            event["mean"] = cost.mean_compute
            event["remote"] = cost.remote_tokens
            if cost.hidden is not None:
                event["hidden"] = cost.hidden
                event["comm"] = cost.comm
        if stall:
            event["stall"] = stall
        self.events.append(event)

    # -- serialization -----------------------------------------------------------
    def to_jsonl(self) -> str:
        """Header line (schema + meta) followed by one event per line."""
        lines = [json.dumps({"schema": TRACE_SCHEMA, "meta": self.meta}, sort_keys=True)]
        lines.extend(json.dumps(event) for event in self.events)
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

"""Counter/gauge time series sampled on a fixed simulated-time interval.

A :class:`MetricsRegistry` holds one growing list of *samples*.  The engine
checks ``clock >= registry.next_due`` once per iteration (a single float
compare when enabled, a single ``is not None`` test when disabled) and,
when due, snapshots the scheduler and KV state:

==================  ==========================================================
``t``               simulated seconds at the sampling iteration's end
``i``               iteration index (after the sampled iteration)
``batch``           running sequences in the sampled iteration
``waiting``         queue depth behind admission control
``preemptions``     cumulative preemption count
``placement_epoch`` current expert placement epoch (bumps on re-placement)
``used_blocks``     KV blocks in use across all devices
``free_blocks``     KV blocks free across all devices
``kv_utilization``  ``used / (used + free)`` (0.0 for an empty pool)
``free_per_device`` per-device free-block list (multi-device runs only)
==================  ==========================================================

Sampling is aligned to the interval grid: after a sample at time ``t`` the
next one is due at ``interval * (floor(t / interval) + 1)``, so a quiet
stretch yields one sample per grid crossing rather than a backlog.  All
timestamps are simulated seconds — the registry is DET001-clean, and a
loop turn's stretch samples exactly where simulating its iterations one by
one would.
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = ["METRICS_SCHEMA", "MetricsRegistry"]

#: Schema tag of the metrics JSONL format (header line of every file).
METRICS_SCHEMA = "milo-metrics/v1"


class MetricsRegistry:
    """Fixed-interval sim-time sampler for scheduler and KV gauges."""

    __slots__ = ("interval", "samples", "next_due")

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"metrics interval must be positive, got {interval}")
        self.interval = float(interval)
        self.samples: list[dict[str, Any]] = []
        #: Simulated time of the next due sample; the engine compares the
        #: clock against this once per iteration.
        self.next_due: float = 0.0

    def sample(
        self,
        t: float,
        i: int,
        *,
        batch: int,
        waiting: int,
        preemptions: int,
        placement_epoch: int,
        used_blocks: int,
        free_blocks: int,
        free_per_device: list[int] | None = None,
    ) -> None:
        total = used_blocks + free_blocks
        row: dict[str, Any] = {
            "t": t,
            "i": i,
            "batch": batch,
            "waiting": waiting,
            "preemptions": preemptions,
            "placement_epoch": placement_epoch,
            "used_blocks": used_blocks,
            "free_blocks": free_blocks,
            "kv_utilization": used_blocks / total if total else 0.0,
        }
        if free_per_device is not None:
            row["free_per_device"] = free_per_device
        self.samples.append(row)
        self.next_due = self.interval * (math.floor(t / self.interval) + 1.0)

    # -- serialization -----------------------------------------------------------
    def to_jsonl(self) -> str:
        """Header line (schema + interval) followed by one sample per line."""
        lines = [
            json.dumps(
                {"schema": METRICS_SCHEMA, "interval": self.interval}, sort_keys=True
            )
        ]
        lines.extend(json.dumps(row) for row in self.samples)
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

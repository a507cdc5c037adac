"""Time the program's layers from outside, by wrapping their public calls.

Nothing under ``src/`` changes: the traced run rebinds attributes at run
time and every span comes from :class:`~milobench.spans.SpanRecorder`.

* Serving: the scheduler that ``engine.make_scheduler`` returns gets its
  ``add_request`` / ``admit`` / ``ensure_capacity`` / ``evict_finished``
  wrapped, its KV ``allocation`` policy its ``admit`` / ``blocks_deficit``
  / ``grow`` / ``release``, and the backend instance its
  ``iteration_latency`` (called
  only on the engine's latency-memo misses).  A sharded block manager is
  switched to a subclass whose pool-aggregate reads (``used_blocks``,
  ``shared_blocks``, ``used_blocks_on``, ``free_blocks_on``) and
  ``migrate`` are wrapped — properties cannot be wrapped per instance.
* Compression: ``MiLoMatrixOptimizer.optimize``, ``HQQQuantizer.quantize``
  and the ``truncated_svd_factors`` name ``repro.core.milo`` calls are
  swapped by module attribute for the duration of one ``compress()``, and
  the rank policy's ``assign`` is wrapped on the instance.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.core import milo as core_milo
from repro.core.rank_policy import RankPolicy
from repro.quant import hqq as quant_hqq
from repro.serving import ServingEngine
from repro.serving.cluster import ShardedBlockManager

from .spans import SpanRecorder

SCHEDULER_CALLS = ("add_request", "admit", "ensure_capacity", "evict_finished")
KV_CALLS = ("admit", "blocks_deficit", "grow", "release")
AGGREGATE_PROPERTIES = ("used_blocks", "shared_blocks")
AGGREGATE_METHODS = ("used_blocks_on", "free_blocks_on")


def _traced_sharded_class(recorder: SpanRecorder) -> type:
    namespace: dict[str, Any] = {
        prop: property(
            recorder.wrap(
                "serving.cluster.aggregate", getattr(ShardedBlockManager, prop).fget
            )
        )
        for prop in AGGREGATE_PROPERTIES
    }
    for method in AGGREGATE_METHODS:
        namespace[method] = recorder.wrap(
            "serving.cluster.aggregate", getattr(ShardedBlockManager, method)
        )
    namespace["migrate"] = recorder.wrap(
        "serving.cluster.migrate", ShardedBlockManager.migrate
    )
    return type("TracedShardedBlockManager", (ShardedBlockManager,), namespace)


def instrument_engine(engine: ServingEngine, recorder: SpanRecorder) -> dict[str, int]:
    """Wrap one engine's layers; returns a live ``{"admitted": n}`` counter."""
    counts = {"admitted": 0}

    def count_admitted(admitted: list) -> None:
        counts["admitted"] += len(admitted)

    make_scheduler = engine.make_scheduler

    def make_traced_scheduler() -> Any:
        scheduler = make_scheduler()
        for call in SCHEDULER_CALLS:
            setattr(
                scheduler,
                call,
                recorder.wrap(
                    f"serving.scheduler.{call}",
                    getattr(scheduler, call),
                    count_admitted if call == "admit" else None,
                ),
            )
        allocation = scheduler.allocation
        for call in KV_CALLS:
            setattr(
                allocation,
                call,
                recorder.wrap(f"serving.kv_cache.{call}", getattr(allocation, call)),
            )
        return scheduler

    engine.make_scheduler = make_traced_scheduler  # type: ignore[method-assign]
    backend = engine.backend
    backend.iteration_latency = recorder.wrap(  # type: ignore[method-assign]
        "runtime.backends.iteration_latency", backend.iteration_latency
    )
    if isinstance(engine.block_manager, ShardedBlockManager):
        engine.block_manager.__class__ = _traced_sharded_class(recorder)
    return counts


@contextmanager
def instrument_compressor(recorder: SpanRecorder, policy: RankPolicy) -> Iterator[None]:
    """Wrap the compressor's layers for one ``compress()`` call."""
    policy.assign = recorder.wrap(  # type: ignore[method-assign]
        "core.rank_policy.assign", policy.assign
    )
    patches = [
        (core_milo.MiLoMatrixOptimizer, "optimize", "core.milo.optimize"),
        (quant_hqq.HQQQuantizer, "quantize", "quant.hqq.quantize"),
        (core_milo, "truncated_svd_factors", "core.compensator.truncated_svd"),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, name in patches:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

"""The benchmark's workloads and one measured repetition of each.

Every workload is generated from the run's ``--seed``.  A run measures many
*instances*, each generated from ``(seed, instance)``, and runs every
instance twice in a row: the second run must reproduce the first's digest
(the determinism check), and spreading a run over many instances keeps its
median from hanging on one draw of the traffic or the weights.

From the simulator's side every serve workload is an offline batch job: the
whole request list is built, then ``engine.run`` replays it.  The *modeled*
cluster sees an open-loop Poisson schedule at the stated rate.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Union

import numpy as np

from repro.core.pipeline import ModelCompressor
from repro.core.strategies import build_strategy
from repro.models.registry import get_config
from repro.models.transformer import MoETransformer
from repro.runtime.backends import MiLoBackend
from repro.serving import EngineConfig, Request, ServingEngine, poisson_workload

from . import instrument
from .spans import ROOT, SpanRecorder

#: The served model of every serve workload (full-size spec; the simulator
#: prices it, nothing is instantiated).
SERVED_MODEL = "mixtral-8x7b"


def instance_seed(seed: int, instance: int) -> int:
    """Seed of one generated instance of a run's workload."""
    return int(np.random.SeedSequence([seed, instance]).generate_state(1)[0])


def _spanner(
    recorder: SpanRecorder | None,
) -> Callable[[str], AbstractContextManager[Any]]:
    if recorder is None:
        return lambda name: nullcontext()
    return recorder.span


@dataclass
class Rep:
    """One measured repetition: timings, correctness and its outputs."""

    setup_s: float
    run_s: float
    #: Work done by the timed call: simulated tokens (serve) or weight
    #: elements compressed (compress).
    work: float
    #: Operations submitted (requests or weight matrices) and how many failed.
    submitted: int
    failed: int
    #: Digest of the program's output; the repeat of an instance must match.
    digest: str
    #: Failed correctness checks, as messages.
    problems: list[str]
    #: End-to-end outputs of the program, printed by name (unit, value).
    outputs: dict[str, tuple[str, float]]
    #: Deterministic per-layer counters read from the output.
    counters: dict[str, float] = field(default_factory=dict)
    #: Calibration kernel time around this repetition (set by the caller).
    kernel_s: float = math.nan


@dataclass(frozen=True)
class ServeWorkload:
    """Poisson traffic replayed by a fresh ``ServingEngine`` on the MiLo backend."""

    name: str
    why: str
    requests: int
    traffic: dict[str, Any]
    engine: dict[str, Any]
    work_name = "sim_tokens_per_s"
    work_unit = "tok/s"
    time_name = "engine_run_s"
    op_name = "requests"

    def build_requests(self, seed: int, instance: int) -> list[Request]:
        return poisson_workload(
            num_requests=self.requests, seed=instance_seed(seed, instance), **self.traffic
        )

    def _engine(self) -> ServingEngine:
        # debug_checks off: the KV audit never changes the report, only
        # whether accounting bugs raise; the conservation check below stays.
        config = EngineConfig(debug_checks=False, **self.engine)
        return ServingEngine(MiLoBackend(), SERVED_MODEL, config)

    def warm_up(self) -> None:
        self._engine().run(self.build_requests(0, 0)[: max(1, self.requests // 10)])

    def rep(self, seed: int, instance: int, recorder: SpanRecorder | None = None) -> Rep:
        span = _spanner(recorder)
        admitted: dict[str, int] = {}
        gc.collect()
        with span(ROOT):
            start = time.perf_counter()
            with span("serving.workload.build"):
                requests = self.build_requests(seed, instance)
            with span("serving.engine.init"):
                engine = self._engine()
            setup_s = time.perf_counter() - start
            if recorder is not None:
                admitted = instrument.instrument_engine(engine, recorder)
            start = time.perf_counter()
            with span("serving.engine.run"):
                report = engine.run(requests)
            with span("serving.engine.report"):
                serialized = json.dumps(report.to_dict(), sort_keys=True)
            run_s = time.perf_counter() - start

        submitted = len(requests)
        problems = []
        accounted = report.completed + report.rejected + report.stranded
        if accounted != submitted or report.num_requests != submitted:
            problems.append(
                f"conservation: completed {report.completed} + rejected "
                f"{report.rejected} + stranded {report.stranded} != submitted {submitted}"
            )
        cluster = report.cluster or {}
        overlap = report.overlap or {}
        migration = report.migration or {}
        prompt_tokens = sum(r.prompt_tokens for r in requests)
        counters = {
            "engine.iterations": report.iterations,
            "scheduler.preemptions": report.preemptions,
            "scheduler.recomputed_tokens": report.recomputed_tokens,
            "scheduler.swaps": migration.get("swaps", 0),
            "scheduler.admitted": admitted.get("admitted", 0),
            "kv.peak_util": report.kv_utilization_peak,
            "kv.prefix_hit_frac": report.prefix_hit_tokens / prompt_tokens,
            "kv.dedup_ratio": report.prefix_dedup_ratio,
            "kv.cow_copies": report.prefix_cow_copies,
            "cluster.handoffs": migration.get("handoffs", 0),
            "cluster.rebalances": migration.get("rebalances", 0),
            "cluster.handoff_s": migration.get("handoff_s", 0.0),
            "cluster.straggler_ratio": cluster.get("straggler_ratio", 0.0),
            "cluster.alltoall_tokens": cluster.get("alltoall_tokens", 0),
            "cluster.replacements": overlap.get("replacements", 0),
            "cluster.overlap_ratio": overlap.get("overlap_ratio", 0.0),
        }
        return Rep(
            setup_s=setup_s,
            run_s=run_s,
            work=report.iterations * report.mean_batch_tokens,
            submitted=submitted,
            failed=report.rejected + report.stranded,
            digest=hashlib.sha256(serialized.encode()).hexdigest(),
            problems=problems,
            outputs={
                "model_ttft_p50_s": ("s", report.ttft["p50"]),
                "model_ttft_p95_s": ("s", report.ttft["p95"]),
                "model_tpot_p50_s": ("s", report.tpot["p50"]),
                "model_tpot_p95_s": ("s", report.tpot["p95"]),
                "model_qps": ("1/s", report.sustained_qps),
            },
            counters=counters,
        )


@dataclass(frozen=True)
class CompressWorkload:
    """MiLo compression of a freshly initialized mini model (paper Alg. 1)."""

    name: str
    why: str
    model: str
    strategy: str
    bits: int
    work_name = "weights_per_s"
    work_unit = "weights/s"
    time_name = "compress_s"
    op_name = "matrices"

    def build_model(self, seed: int, instance: int) -> tuple[MoETransformer, Any]:
        config = replace(get_config(self.model), seed=instance_seed(seed, instance))
        return MoETransformer(config), config

    def warm_up(self) -> None:
        model = MoETransformer(get_config("tiny-moe"))
        policy = build_strategy(self.strategy, model.config)
        ModelCompressor(method="milo", bits=self.bits, rank_policy=policy).compress(model)

    def rep(self, seed: int, instance: int, recorder: SpanRecorder | None = None) -> Rep:
        span = _spanner(recorder)
        gc.collect()
        with span(ROOT):
            start = time.perf_counter()
            with span("models.build"):
                model, config = self.build_model(seed, instance)
            with span("core.strategies.build_strategy"):
                policy = build_strategy(self.strategy, config)
            setup_s = time.perf_counter() - start
            originals = {
                path: linear.weight.data.copy()
                for path, _, linear in model.iter_quantizable()
            }
            compressor = ModelCompressor(method="milo", bits=self.bits, rank_policy=policy)
            traced: AbstractContextManager[Any] = (
                nullcontext()
                if recorder is None
                else instrument.instrument_compressor(recorder, policy)
            )
            with traced:
                start = time.perf_counter()
                with span("core.pipeline.compress"):
                    model, report = compressor.compress(model)
                run_s = time.perf_counter() - start

        # Recompute the error from the deployed modules, not from the report.
        problems = []
        failed = 0
        err_sq = norm_sq = 0.0
        digest = hashlib.sha256()
        for path, weight in originals.items():
            deployed = model.get_submodule(path.rsplit(".weight", 1)[0])
            w_hat = deployed.effective_weight()
            if w_hat.shape != weight.shape or not np.isfinite(w_hat).all():
                failed += 1
                problems.append(f"{path}: deployed weight is not a finite {weight.shape} matrix")
                continue
            digest.update(w_hat.tobytes())
            err_sq += float(np.sum((weight - w_hat) ** 2))
            norm_sq += float(np.sum(weight**2))
        rel_error = math.sqrt(err_sq / norm_sq) if norm_sq else math.nan
        if not rel_error < 1.0:
            problems.append(f"compress_rel_error {rel_error} is not below 1")

        stats = [report.layer_stats[path] for path in originals if path in report.layer_stats]
        final_sq = sum(s["final_error"] ** 2 for s in stats)
        counters = {
            "core.milo.iterations": sum(s["iterations"] for s in stats),
            "core.milo.converged_frac": (
                sum(s["stop_reason"] == "converged" for s in stats) / len(stats) if stats else 0.0
            ),
            "core.milo.final_rel_error": math.sqrt(final_sq / norm_sq) if norm_sq else 0.0,
        }
        return Rep(
            setup_s=setup_s,
            run_s=run_s,
            work=float(sum(w.size for w in originals.values())),
            submitted=len(originals),
            failed=failed,
            digest=digest.hexdigest(),
            problems=problems,
            outputs={
                "compress_rel_error": ("ratio", rel_error),
                "compress_bytes_ratio": ("ratio", report.compression_ratio),
            },
            counters=counters,
        )


Workload = Union[ServeWorkload, CompressWorkload]

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ServeWorkload(
            name="serve_colocated_steady",
            why=(
                "1 device, reserve KV, qps 2, 128+64 tokens: the macro-stepped fast "
                "path does nearly all the work; KV, cluster and cost-model changes "
                "must show no change here"
            ),
            requests=20_000,
            traffic=dict(qps=2.0),
            engine=dict(),
        ),
        ServeWorkload(
            name="serve_overlap_prefix_swap",
            why=(
                "4 devices, overlap + drift re-placement, ondemand KV with swap, 512 "
                "shared-prefix tokens: the general loop, victim selection, prefix "
                "share/grow/swap and the layered cost model"
            ),
            requests=1_000,
            traffic=dict(
                qps=20.0,
                mean_prompt_tokens=128,
                mean_new_tokens=512,
                shared_prefix_tokens=512,
                prefix_groups=8,
            ),
            engine=dict(
                devices=4,
                placement="frequency",
                overlap=True,
                replacement_threshold=0.1,
                kv_policy="ondemand",
                preempt_mode="swap",
                reserve_gb=30.0,
                max_batch_size=512,
            ),
        ),
        ServeWorkload(
            name="serve_disagg_handoff",
            why=(
                "disagg 1:3, ondemand KV, 1024+512 tokens at qps 5: every request "
                "migrates its KV and pool-aggregate reads run every iteration"
            ),
            requests=1_000,
            traffic=dict(qps=5.0, mean_prompt_tokens=1024, mean_new_tokens=512),
            engine=dict(
                devices=4,
                prefill_devices=1,
                decode_devices=3,
                kv_policy="ondemand",
                reserve_gb=17.0,
                max_batch_size=256,
            ),
        ),
        CompressWorkload(
            name="compress_milo_mixtral",
            why=(
                "MiLo 3-bit with mixtral-s1 ranks on mixtral-mini (84 matrices, HQQ+SVD "
                "iterations): the only workload that runs core/quant, bypassing serving"
            ),
            model="mixtral-mini",
            strategy="mixtral-s1",
            bits=3,
        ),
    )
}

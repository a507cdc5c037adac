"""Run a workload for a time budget and turn its repetitions into metrics."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .spans import Profile, SpanRecorder
from .workloads import Rep, Workload

#: Declares every metric's name and unit; what a run reports must match it.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Every run measures at least one instance twice (the determinism check).
MIN_REPS = 2
#: The traced run keeps every span in memory; it stops after this many
#: traced repetitions, or once this many spans are held, even if
#: ``--seconds`` has not run out.
MAX_TRACED_REPS = 4
MAX_SPANS = 1_000_000

#: Calibration.  A shared host's speed drifts by tens of percent over tens of
#: seconds, and every timing of a run, set-up included, slows together.  So a
#: fixed pure-Python kernel that does not touch the program is timed right
#: before and right after each repetition, and every reported timing is in
#: *reference seconds*: wall seconds times ``(REFERENCE_KERNEL_S / kernel
#: time around that repetition) ** KERNEL_EXPONENT``, i.e. seconds on a host
#: where the kernel takes 8 ms (its time on an idle 2-vCPU x86-64 host with
#: CPython 3.11).  The program slows less than the tight kernel when the host
#: is contended; over forty 25 s runs of the four workloads the run-to-run
#: spread was smallest with the exponent at 0.75.  Raw wall seconds are
#: printed beside the reference ones.
REFERENCE_KERNEL_S = 0.008
KERNEL_EXPONENT = 0.75
#: On each side of a repetition the kernel runs at least ``KERNEL_RUNS``
#: times and for at least ``KERNEL_SHARE`` of the repetition's timed call, so
#: long repetitions are bracketed by proportionally longer samples.
KERNEL_RUNS = 3
KERNEL_SHARE = 0.03


def calibration_kernel() -> int:
    """Dict, integer and sort work of a fixed size (~8 ms of CPython)."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(40_000):
        key = (i * 2654435761) % 1024
        counts[key] = counts.get(key, 0) + i
        acc += key & 7
    return acc + len(sorted(counts.items()))


def kernel_s(budget_s: float) -> float:
    """Median kernel time over at least ``KERNEL_RUNS`` runs and ``budget_s``."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < KERNEL_RUNS or time.perf_counter() - start < budget_s:
        begin = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def calibrated_rep(
    workload: Workload,
    seed: int,
    instance: int,
    previous: Rep | None,
    recorder: SpanRecorder | None = None,
) -> Rep:
    """One repetition bracketed by kernel samples (sized by ``previous``)."""
    before = kernel_s(KERNEL_SHARE * previous.run_s if previous else 0.0)
    rep = workload.rep(seed, instance, recorder)
    rep.kernel_s = (before + kernel_s(KERNEL_SHARE * rep.run_s)) / 2
    return rep


def ref_s(rep: Rep, seconds: float) -> float:
    """``seconds`` measured in ``rep``, in reference seconds."""
    return seconds * (REFERENCE_KERNEL_S / rep.kernel_s) ** KERNEL_EXPONENT


def untraced_reps(workload: Workload, seed: int, seconds: float) -> list[Rep]:
    """Repetitions ``[i0, i0, i1, i1, ...]`` until ``seconds`` have passed."""
    workload.warm_up()
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(calibrated_rep(workload, seed, len(reps) // 2, reps[-1] if reps else None))
    return reps


def traced_reps(
    workload: Workload, seed: int, seconds: float, recorder: SpanRecorder
) -> list[Rep]:
    """Pairs ``[untraced i, traced i, ...]``: the pair gives the tracing
    overhead, and the traced repeat must reproduce the untraced digest."""
    workload.warm_up()
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (
        time.perf_counter() - start < seconds
        and len(reps) < 2 * MAX_TRACED_REPS
        and len(recorder.spans) < MAX_SPANS
    ):
        instance = len(reps) // 2
        reps.append(calibrated_rep(workload, seed, instance, reps[-1] if reps else None))
        recorder.run = instance
        reps.append(calibrated_rep(workload, seed, instance, reps[-1], recorder))
    return reps


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]


def check(reps: list[Rep]) -> Outcome:
    """Every failed check counts all of its repetition's operations as failed."""
    attempted = failed = 0
    problems: list[str] = []
    for i, rep in enumerate(reps):
        attempted += rep.submitted
        bad = [f"rep {i}: {p}" for p in rep.problems]
        if i % 2 == 1 and rep.digest != reps[i - 1].digest:
            bad.append(f"rep {i}: output digest differs from rep {i - 1} (same instance)")
        problems += bad
        failed += rep.submitted if bad else rep.failed
    return Outcome(attempted, failed, problems)


def rate(rep: Rep) -> float:
    """Work per reference second of the timed call."""
    return rep.work / ref_s(rep, rep.run_s)


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    return {
        "run_s": statistics.median(ref_s(r, r.run_s) for r in reps),
        "work_per_s": statistics.median(rate(r) for r in reps),
        "setup_s": statistics.median(ref_s(r, r.setup_s) for r in reps),
        "peak_rss_mb": peak_rss_mb(),
    }


#: Per-layer metric prefix -> span name of a wrapped call; each gets
#: ``.calls`` (per traced repetition) and ``.share`` (inclusive time over
#: the traced total).
CALLS = {
    "scheduler.add_request": "serving.scheduler.add_request",
    "scheduler.admit": "serving.scheduler.admit",
    "scheduler.ensure_capacity": "serving.scheduler.ensure_capacity",
    "scheduler.evict_finished": "serving.scheduler.evict_finished",
    "kv.admit": "serving.kv_cache.admit",
    "kv.blocks_deficit": "serving.kv_cache.blocks_deficit",
    "kv.grow": "serving.kv_cache.grow",
    "kv.release": "serving.kv_cache.release",
    "cluster.aggregate": "serving.cluster.aggregate",
    "cluster.migrate": "serving.cluster.migrate",
    "backend.iteration_latency": "runtime.backends.iteration_latency",
    "core.rank_policy.assign": "core.rank_policy.assign",
    "core.milo.optimize": "core.milo.optimize",
    "quant.hqq.quantize": "quant.hqq.quantize",
    "core.compensator.truncated_svd": "core.compensator.truncated_svd",
}

#: Layers (span-name prefixes) reported as ``self_share.<layer>``.
LAYERS = (
    "milobench",
    "serving.workload",
    "serving.engine",
    "serving.scheduler",
    "serving.kv_cache",
    "serving.cluster",
    "runtime.backends",
    "models",
    "core.strategies",
    "core.pipeline",
    "core.rank_policy",
    "core.milo",
    "quant.hqq",
    "core.compensator",
)

#: Deterministic counters read from each traced repetition's output
#: (mean per repetition; 0 where the workload does not run the layer).
COUNTERS = (
    "engine.iterations",
    "scheduler.preemptions",
    "scheduler.recomputed_tokens",
    "scheduler.swaps",
    "kv.peak_util",
    "kv.prefix_hit_frac",
    "kv.dedup_ratio",
    "kv.cow_copies",
    "cluster.handoffs",
    "cluster.rebalances",
    "cluster.handoff_s",
    "cluster.straggler_ratio",
    "cluster.alltoall_tokens",
    "cluster.replacements",
    "cluster.overlap_ratio",
    "core.milo.iterations",
    "core.milo.converged_frac",
    "core.milo.final_rel_error",
)


def tracing_overhead(reps: list[Rep]) -> float:
    """1 - traced rate / untraced rate, medians over the pairs."""
    untraced = statistics.median(rate(r) for r in reps[0::2])
    traced = statistics.median(rate(r) for r in reps[1::2])
    return 1.0 - traced / untraced


def per_layer(prof: Profile, reps: list[Rep]) -> dict[str, float]:
    """Per-layer metrics of a traced run (``reps`` as from :func:`traced_reps`)."""
    traced = reps[1::2]

    def share(seconds: float) -> float:
        return seconds / prof.total_s

    metrics = {
        "workload.build.share": share(prof.inclusive_s.get("serving.workload.build", 0.0)),
        "engine.run.self_share": share(prof.self_s.get("serving.engine.run", 0.0)),
        "engine.report.share": share(prof.inclusive_s.get("serving.engine.report", 0.0)),
    }
    for prefix, name in CALLS.items():
        metrics[f"{prefix}.calls"] = prof.calls.get(name, 0) / len(traced)
        metrics[f"{prefix}.share"] = share(prof.inclusive_s.get(name, 0.0))
    admit_calls = prof.calls.get(CALLS["scheduler.admit"], 0)
    admitted = sum(r.counters.get("scheduler.admitted", 0) for r in traced)
    metrics["scheduler.admitted_per_admit_call"] = admitted / admit_calls if admit_calls else 0.0
    for counter in COUNTERS:
        metrics[counter] = statistics.fmean(r.counters.get(counter, 0.0) for r in traced)
    layers = prof.layer_self_s()
    for layer in LAYERS:
        metrics[f"self_share.{layer}"] = share(layers.get(layer, 0.0))
    metrics["trace.overhead_frac"] = tracing_overhead(reps)
    return metrics


def with_units(values: dict[str, float], kind: str) -> dict[str, dict[str, object]]:
    """``{name: {"value", "unit"}}`` in ``BENCHMARK.json`` order for ``kind``
    (``end_to_end`` or ``per_layer``); the names must match exactly."""
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[kind]}
    if set(values) != set(units):
        raise RuntimeError(
            f"{kind} metrics disagree with BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "?")
    return (
        f"python {platform.python_version()} | numpy {np.__version__} | "
        f"blas {blas.get('name')} {blas.get('version')} | nproc {os.cpu_count()} | "
        f"BLAS/OpenMP threads {threads} | one process, no worker threads | "
        f"{platform.machine()} {sys.platform}"
    )

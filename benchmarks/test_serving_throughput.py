"""Serving throughput under load — MiLo vs FP16 / GPTQ / MARLIN backends.

Beyond Table 7: the paper reports single-step decode latency per backend;
this bench drives the same latency models through the continuous-batching
serving engine (:mod:`repro.serving`) and checks that the memory savings
translate into *serving capacity*:

* PyTorch FP16 cannot host Mixtral-8x7B at all (max batch 0 via the shared
  typed OOM path), and even where it fits (DeepSeek-MoE) its KV block pool —
  and therefore its max sustainable batch — is strictly smaller than the
  3-bit MiLo backend's under the same 40 GB budget;
* GPTQ's batch-1 GeMV kernel collapses under concurrent load (its sustained
  QPS sits far below the offered rate);
* MiLo sustains at least MARLIN's throughput with lower p50 TTFT/TPOT, the
  serving-level reflection of the 1.2x kernel gap;
* on a KV-bound workload, the on-demand allocation policy packs a strictly
  larger concurrent batch into the same 40 GB MiLo pool than full-extent
  reservation (the policy comparison section of the results file), because
  reservation pins the unwritten decode budget of every running sequence;
* on shared-prefix traffic (K system prompts), prefix caching stores each
  group's common KV blocks once: the same VRAM sustains a strictly larger
  peak batch with strictly fewer physical block allocations and higher QPS
  than the identical traffic without sharing (the prefix-sharing section);
* sharding the KV pool and the routed experts across 1/2/4 devices scales
  sustained QPS, and — at equal total VRAM — frequency-aware expert
  placement strictly beats round-robin under the paper's Fig. 3 routing
  skew, because the iteration cost is the max over per-device expert loads
  (the cluster-scaling section).
"""

from dataclasses import replace

import pytest

from _helpers import format_rows, save_result
from repro.analysis.expert_frequency import (
    fig3_layer_frequencies,
    fig3_reference_frequencies,
)
from repro.runtime import OutOfMemoryError
from repro.runtime.backends import (
    GPTQ3bitBackend,
    MarlinBackend,
    MiLoBackend,
    PyTorchFP16Backend,
)
from repro.serving import EngineConfig, ServingEngine, poisson_workload

SEQ_TOKENS = 192  # 128-token prompt + 64 decode tokens
CAPACITY_CONFIG = EngineConfig(max_batch_size=100_000)  # let KV capacity bind



def _backends():
    return {
        "PyTorch-FP16": PyTorchFP16Backend(),
        "GPTQ3bit": GPTQ3bitBackend(),
        "MARLIN": MarlinBackend(serve_asymmetric_model=True),
        "MiLo": MiLoBackend(),
    }


def _max_batch(backend, model: str) -> int:
    try:
        return ServingEngine(backend, model, CAPACITY_CONFIG).max_batch_size(SEQ_TOKENS)
    except OutOfMemoryError:
        return 0


def run_serving_comparison():
    workload = poisson_workload(80, qps=6.0, seed=0)
    rows = []
    reports = {}
    for name, backend in _backends().items():
        max_batch = _max_batch(backend, "mixtral-8x7b")
        row = {"backend": name, "max_batch@192tok": max_batch}
        try:
            report = ServingEngine(backend, "mixtral-8x7b").run(workload)
            reports[name] = report
            row.update(
                qps=round(report.sustained_qps, 2),
                ttft_p50_ms=round(report.ttft["p50"] * 1e3, 2),
                ttft_p95_ms=round(report.ttft["p95"] * 1e3, 2),
                tpot_p50_ms=round(report.tpot["p50"] * 1e3, 2),
                peak_batch=report.peak_batch,
            )
        except OutOfMemoryError:
            reports[name] = None
            row.update(qps="OOM", ttft_p50_ms="-", ttft_p95_ms="-", tpot_p50_ms="-", peak_batch="-")
        rows.append(row)

    capacity = {
        name: {
            "mixtral-8x7b": _max_batch(backend, "mixtral-8x7b"),
            "deepseek-moe": _max_batch(backend, "deepseek-moe"),
        }
        for name, backend in _backends().items()
    }
    return rows, reports, capacity


def run_policy_comparison():
    """Reservation vs on-demand KV allocation on a KV-bound MiLo workload.

    Both engines see the identical 40 GB device and config; a large
    activation/workspace reservation leaves a tight KV budget, the regime
    where decode batches are small enough to stay memory-bound — so every
    extra concurrent sequence the allocation policy packs in converts almost
    directly into sustained QPS.  Lengths are constant (jitter 0) so each
    request reserves exactly ``prompt + max_new`` tokens under the
    reservation policy while writing them only gradually — the gap the
    on-demand policy spends on additional concurrency.
    """
    workload = poisson_workload(
        300, qps=16.0, seed=0, mean_prompt_tokens=128, mean_new_tokens=256, length_jitter=0.0
    )
    rows = []
    reports = {}
    for policy in ("reserve", "ondemand"):
        config = EngineConfig(max_batch_size=100_000, kv_policy=policy, reserve_gb=17.0)
        report = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload)
        reports[policy] = report
        rows.append(
            {
                "kv_policy": policy,
                "peak_batch": report.peak_batch,
                "qps": round(report.sustained_qps, 2),
                "ttft_p50_s": round(report.ttft["p50"], 2),
                "preemptions": report.preemptions,
                "recomputed_tokens": report.recomputed_tokens,
                "kv_util_peak": round(report.kv_utilization_peak, 3),
            }
        )
    return rows, reports


def run_prefix_sharing_comparison():
    """Prefix caching vs no sharing on identical shared-prefix traffic.

    Four 512-token system prompts front a short per-request private part; a
    tight KV budget makes the pool bind.  With prefix caching each group's
    common blocks are stored once (and their prefill compute skipped), so at
    equal VRAM the engine packs a strictly larger concurrent batch from
    strictly fewer physical block allocations — the memory half of the vLLM
    design compounding the paper's quantization savings.
    """
    workload = poisson_workload(
        200, qps=16.0, seed=0, mean_prompt_tokens=64, mean_new_tokens=128,
        length_jitter=0.0, shared_prefix_tokens=512, prefix_groups=4,
    )
    unshared = [replace(r, prefix_id=None, prefix_tokens=0) for r in workload]
    rows = []
    results = {}
    for label, wl in (("shared-prefix", workload), ("no-sharing", unshared)):
        config = EngineConfig(max_batch_size=100_000, kv_policy="ondemand", reserve_gb=17.0)
        engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
        report = engine.run(wl)
        results[label] = (report, engine.block_manager.physical_allocs)
        rows.append(
            {
                "workload": label,
                "peak_batch": report.peak_batch,
                "qps": round(report.sustained_qps, 2),
                "ttft_p50_s": round(report.ttft["p50"], 2),
                "blocks_allocated": engine.block_manager.physical_allocs,
                "hit_tokens": report.prefix_hit_tokens,
                "shared_blocks_peak": report.prefix_shared_blocks_peak,
                "dedup_ratio": round(report.prefix_dedup_ratio, 2),
            }
        )
    return rows, results


def run_cluster_scaling():
    """QPS at 1/2/4 devices under Fig. 3-skewed routing, per placement.

    DeepSeek-grade skew (11.7x max/min) over Mixtral's 8 experts.  The
    iteration cost is the max over per-device costs, so whichever device the
    round-robin placement hands the hot experts becomes the straggler every
    iteration; frequency-aware (LPT) placement flattens the expert mass.
    The acceptance comparison is *equal total VRAM*: both placements run on
    the identical 4-device group, and the only difference is which device
    hosts which expert.
    """
    freqs = tuple(fig3_reference_frequencies(8, imbalance_ratio=11.7))
    workload = poisson_workload(
        250, qps=32.0, seed=0, mean_prompt_tokens=128, mean_new_tokens=192,
        length_jitter=0.0,
    )
    rows = []
    reports = {}
    for devices in (1, 2, 4):
        for placement in ("balanced", "frequency"):
            if devices == 1 and placement == "frequency":
                continue  # one device hosts every expert either way
            config = EngineConfig(
                max_batch_size=100_000, kv_policy="ondemand", reserve_gb=17.0,
                devices=devices, placement=placement, expert_frequencies=freqs,
            )
            report = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload)
            reports[(devices, placement)] = report
            cluster = report.to_dict().get("cluster")
            rows.append(
                {
                    "devices": devices,
                    "placement": placement if devices > 1 else "-",
                    "qps": round(report.sustained_qps, 2),
                    "ttft_p50_s": round(report.ttft["p50"], 2),
                    "peak_batch": report.peak_batch,
                    "straggler": round(cluster["straggler_ratio"], 3) if cluster else 1.0,
                    "alltoall_tok": int(cluster["alltoall_tokens"]) if cluster else 0,
                    "experts/dev": (
                        "/".join(str(p["experts"]) for p in cluster["per_device"])
                        if cluster
                        else "8"
                    ),
                }
            )
    return rows, reports


def run_overlap_scaling():
    """Serial vs overlap-aware layered cost model at 2/4/8 devices.

    Both rows of each pair share everything — device group, frequency
    placement packed from the flat Fig. 3 profile, KV pools, workload.  The
    overlap rows additionally model the per-layer truth (depth-varying skew,
    rotated hot expert — :func:`fig3_layer_frequencies`), hide each layer's
    all-to-all under the next layer's compute, and re-pack layers whose
    true routing drifts from the profile (pricing the moved expert
    weights over the interconnect).  Overlap hides most of the
    communication and flattens the per-layer stragglers the whole-model
    placement cannot see, so sustained QPS rises and the straggler ratio
    falls at every device count.
    """
    freqs = tuple(fig3_reference_frequencies(8, imbalance_ratio=11.7))
    layer_rows = tuple(tuple(r) for r in fig3_layer_frequencies(32, 8))
    workload = poisson_workload(
        250, qps=32.0, seed=0, mean_prompt_tokens=128, mean_new_tokens=192,
        length_jitter=0.0,
    )
    rows = []
    reports = {}
    for devices in (2, 4, 8):
        for mode in ("serial", "overlap"):
            config = EngineConfig(
                max_batch_size=100_000, kv_policy="ondemand", reserve_gb=17.0,
                devices=devices, placement="frequency", expert_frequencies=freqs,
                overlap=(mode == "overlap"),
                layer_frequencies=layer_rows if mode == "overlap" else None,
                replacement_threshold=0.1 if mode == "overlap" else None,
            )
            report = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload)
            reports[(devices, mode)] = report
            d = report.to_dict()
            overlap = d.get("overlap") or {}
            rows.append(
                {
                    "devices": devices,
                    "mode": mode,
                    "qps": round(report.sustained_qps, 3),
                    "sim_time_s": round(report.sim_time_s, 2),
                    "straggler": round(d["cluster"]["straggler_ratio"], 4),
                    "overlap_ratio": (
                        round(overlap["overlap_ratio"], 3) if overlap else "-"
                    ),
                    "hidden_ms": (
                        round(overlap["hidden_comm_s"] * 1e3, 2) if overlap else "-"
                    ),
                    "repl": overlap.get("replacements", "-"),
                    "migration_ms": (
                        round(overlap["migration_s"] * 1e3, 2) if overlap else "-"
                    ),
                }
            )
    return rows, reports


def run_disagg_comparison():
    """Colocated vs disaggregated prefill/decode, recompute vs swap resume.

    Four devices, on-demand allocation, pools shrunk to 40 blocks so
    preemption pressure is real.  Disaggregation pays for every
    prefill→decode handoff over the interconnect, and under recompute
    preemption a full decode pool livelocks handoffs into preempt/retry
    churn; swap-to-host converts that churn into cheap host-bandwidth
    stalls — the migration section prices the swap-in seconds next to what
    recompute of the same KV would have cost, making the tradeoff a
    measured number instead of a design argument.
    """
    workload_kwargs = dict(
        num_requests=40, qps=60.0, seed=13, mean_prompt_tokens=96,
        mean_new_tokens=96,
    )
    cases = {
        "colocated": dict(),
        "disagg-recompute": dict(prefill_devices=1, decode_devices=3),
        "disagg-swap": dict(
            prefill_devices=1, decode_devices=3, preempt_mode="swap"
        ),
    }
    rows = []
    results = {}
    for label, extra in cases.items():
        config = EngineConfig(
            devices=4, kv_policy="ondemand", block_size=8,
            max_batch_size=1000, **extra,
        )
        engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
        for pool in engine.block_manager.pools:
            pool.num_blocks = 40
        report = engine.run(poisson_workload(**workload_kwargs))
        migration = report.to_dict().get("migration", {})
        results[label] = (report, migration)
        rows.append(
            {
                "config": label,
                "sim_time_s": round(report.sim_time_s, 2),
                "qps": round(report.sustained_qps, 2),
                "preempt": report.preemptions,
                "handoffs": migration.get("handoffs", 0),
                "handoff_ms": round(migration.get("handoff_s", 0.0) * 1e3, 3),
                "rebal": migration.get("rebalances", 0),
                "swap_in_ms": round(migration.get("swap_in_s", 0.0) * 1e3, 3),
                "recompute_eq_s": round(
                    migration.get("recompute_equivalent_s", 0.0), 3
                ),
            }
        )
    return rows, results


@pytest.mark.benchmark(group="serving")
def test_serving_throughput_under_load(benchmark):
    def run_all():
        return (
            run_serving_comparison(),
            run_policy_comparison(),
            run_prefix_sharing_comparison(),
            run_cluster_scaling(),
            run_overlap_scaling(),
            run_disagg_comparison(),
        )

    (
        (rows, reports, capacity),
        (policy_rows, policy_reports),
        (prefix_rows, prefix_results),
        (cluster_rows, cluster_reports),
        (overlap_rows, overlap_reports),
        (disagg_rows, disagg_results),
    ) = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_result(
        "serving_throughput",
        format_rows(
            rows,
            title="Serving under load: Poisson 6 QPS, 80 requests, Mixtral-8x7B (modeled A100-40GB)",
        )
        + "\n\n"
        + format_rows(
            policy_rows,
            title=(
                "KV policy comparison: MiLo backend, Poisson 16 QPS, 300 requests of "
                "128+256 tokens (KV-bound: 17 GB activation reserve, same 40 GB device)"
            ),
        )
        + "\n\n"
        + format_rows(
            prefix_rows,
            title=(
                "Prefix sharing: MiLo ondemand, Poisson 16 QPS, 200 requests of "
                "512 shared + 64 private prompt tokens across 4 prefix groups "
                "(same KV-bound 40 GB device, with vs without prefix caching)"
            ),
        )
        + "\n\n"
        + format_rows(
            cluster_rows,
            title=(
                "Cluster scaling: MiLo ondemand, Poisson 32 QPS, 250 requests of "
                "128+192 tokens, Fig. 3 skew 11.7x over 8 experts "
                "(expert-parallel A100-40GB group; placement compared at equal "
                "total VRAM per device count)"
            ),
        )
        + "\n\n"
        + format_rows(
            overlap_rows,
            title=(
                "Overlap-aware layered cost model: serial vs --overlap at 2/4/8 "
                "devices (MiLo ondemand, frequency placement, Poisson 32 QPS, "
                "250 requests of 128+192 tokens; per-layer Fig. 3 skew with "
                "drift-triggered expert re-placement at TV 0.1)"
            ),
        )
        + "\n\n"
        + format_rows(
            disagg_rows,
            title=(
                "Disaggregated prefill/decode: colocated vs --disagg 1:3, "
                "recompute vs swap preemption (MiLo ondemand, 4 devices, "
                "40-block pools, Poisson 60 QPS, 40 requests of 96+96 tokens)"
            ),
        ),
    )

    # Disaggregation under pressure: handoffs actually fire and are priced;
    # swap-to-host resumes beat recompute decisively in the same regime
    # (fewer preemptions, less simulated time, and the per-run report
    # prices the swap-in seconds orders of magnitude below the
    # recompute-equivalent of the same KV).
    colocated, colocated_migration = disagg_results["colocated"]
    recompute, recompute_migration = disagg_results["disagg-recompute"]
    swapped, swapped_migration = disagg_results["disagg-swap"]
    assert colocated_migration == {}  # no migration section when colocated
    for report, _ in disagg_results.values():
        assert report.completed + report.rejected == 40
    for migration in (recompute_migration, swapped_migration):
        assert migration["handoffs"] > 0 and migration["handoff_s"] > 0.0
        assert migration["prefill_devices"] == 1
        assert migration["decode_devices"] == 3
    assert recompute_migration["swaps"] == 0
    assert swapped_migration["swaps"] == swapped.preemptions > 0
    assert swapped.preemptions < recompute.preemptions
    assert swapped.sim_time_s < recompute.sim_time_s
    assert swapped.sustained_qps > recompute.sustained_qps
    assert (
        swapped_migration["swap_in_s"]
        < 0.1 * swapped_migration["recompute_equivalent_s"]
    )

    # Overlap-aware layered cost model: hiding the all-to-all under the next
    # layer's compute and re-packing drifted layers never loses throughput,
    # and at 4+ devices reduces the straggler ratio the whole-model
    # placement cannot see (per-layer routing skew).
    for devices in (2, 4, 8):
        serial_r = overlap_reports[(devices, "serial")]
        overlap_r = overlap_reports[(devices, "overlap")]
        assert overlap_r.sustained_qps >= serial_r.sustained_qps
        assert overlap_r.completed == serial_r.completed == 250
        section = overlap_r.to_dict()["overlap"]
        assert 0.0 < section["overlap_ratio"] <= 1.0
        assert section["hidden_comm_s"] > 0.0
        assert section["replacements"] >= 1 and section["migration_s"] > 0.0
    assert (
        overlap_reports[(4, "overlap")].to_dict()["cluster"]["straggler_ratio"]
        < overlap_reports[(4, "serial")].to_dict()["cluster"]["straggler_ratio"]
    )

    # Expert-parallel scaling: more devices sustain strictly higher QPS on
    # the same skewed traffic, and at 4 devices (equal total VRAM between
    # the two placements) frequency-aware placement strictly beats
    # round-robin — routing skew turned into a measured straggler cost.
    assert cluster_reports[(2, "balanced")].sustained_qps > cluster_reports[
        (1, "balanced")
    ].sustained_qps
    balanced4 = cluster_reports[(4, "balanced")]
    frequency4 = cluster_reports[(4, "frequency")]
    assert frequency4.sustained_qps > balanced4.sustained_qps
    assert frequency4.sim_time_s < balanced4.sim_time_s
    b4 = balanced4.to_dict()["cluster"]
    f4 = frequency4.to_dict()["cluster"]
    assert f4["straggler_ratio"] < b4["straggler_ratio"]
    # Equal total VRAM: the placements shard the same pool sizes in total.
    assert sum(p["kv_blocks"] for p in f4["per_device"]) == pytest.approx(
        sum(p["kv_blocks"] for p in b4["per_device"]), rel=0.02
    )
    for rep in cluster_reports.values():
        assert rep.completed == 250 and rep.rejected == 0

    # Prefix caching on shared-prefix traffic: strictly larger peak batch
    # from strictly fewer physical block allocations, and higher sustained
    # QPS, at equal VRAM (the ISSUE 3 acceptance property).
    shared, shared_allocs = prefix_results["shared-prefix"]
    plain, plain_allocs = prefix_results["no-sharing"]
    assert shared.completed == plain.completed == 200
    assert shared.peak_batch > plain.peak_batch
    assert shared_allocs < plain_allocs
    assert shared.sustained_qps > plain.sustained_qps
    assert shared.prefix_hit_tokens > 0 and shared.prefix_shared_blocks_peak > 0
    assert shared.prefix_dedup_ratio > 1.0
    assert plain.prefix_hit_tokens == 0 and plain.prefix_dedup_ratio == 1.0

    # On-demand allocation packs a strictly larger concurrent batch into the
    # same pool than full-extent reservation AND sustains higher QPS (the
    # memory-bound decode regime, where concurrency is throughput), without
    # dropping requests; reservation by construction never preempts.
    reserve, ondemand = policy_reports["reserve"], policy_reports["ondemand"]
    assert reserve.completed == ondemand.completed == 300
    assert ondemand.peak_batch > reserve.peak_batch
    assert ondemand.sustained_qps > reserve.sustained_qps
    assert reserve.preemptions == 0 and reserve.recomputed_tokens == 0

    # FP16 cannot host Mixtral at all; the quantized backends can.
    assert reports["PyTorch-FP16"] is None
    assert capacity["PyTorch-FP16"]["mixtral-8x7b"] == 0
    assert capacity["MiLo"]["mixtral-8x7b"] > 0

    # Memory savings -> strictly larger sustainable batch, on both models
    # (including DeepSeek-MoE where FP16 does fit).
    for model in ("mixtral-8x7b", "deepseek-moe"):
        assert capacity["MiLo"][model] > capacity["PyTorch-FP16"][model]
    assert capacity["MiLo"]["deepseek-moe"] > 0 and capacity["PyTorch-FP16"]["deepseek-moe"] > 0

    milo, marlin, gptq = reports["MiLo"], reports["MARLIN"], reports["GPTQ3bit"]

    # GPTQ's batch-1 GeMV kernel cannot keep up with concurrent traffic.
    assert gptq.sustained_qps < 0.5 * milo.sustained_qps

    # MiLo at least matches MARLIN's throughput with lower latency.
    assert milo.sustained_qps >= 0.95 * marlin.sustained_qps
    assert milo.ttft["p50"] < marlin.ttft["p50"]
    assert milo.tpot["p50"] < marlin.tpot["p50"]

    # Everyone who fits completes the whole workload (queue-mode admission).
    for name in ("GPTQ3bit", "MARLIN", "MiLo"):
        assert reports[name].completed == 80
        assert reports[name].rejected == 0

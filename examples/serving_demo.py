"""Serving study: memory savings as serving capacity.

Run with::

    python examples/serving_demo.py

Goes beyond the paper's Table 7 (single-step decode latency) by driving the
same backend latency models as an online serving system
(:mod:`repro.serving`): continuous batching, a paged KV-cache over the VRAM
the weights leave free, and a deterministic discrete-event clock.

1. KV-capacity comparison: how many concurrent 192-token sequences each
   backend sustains on a 40 GB A100 (FP16 OOMs outright on Mixtral);
2. one Poisson experiment per backend at the same offered load, reporting
   p50/p95 TTFT, TPOT and sustained QPS;
3. a load sweep on the MiLo backend showing TTFT degrading gracefully as
   offered QPS approaches saturation;
4. a side-by-side of the two KV allocation policies on a KV-bound workload:
   full-extent reservation (deterministic, never preempts) vs on-demand
   growth (vLLM-style: packs more concurrent sequences into the same pool,
   preempting and recomputing the lowest-precedence sequence when it runs
   dry), with and without Sarathi-style chunked prefill;
5. multi-GPU expert-parallel serving (``milo serve --devices N
   --placement {balanced,frequency}``): the KV block pool is sharded into
   one per-device pool (each sequence pinned to its least-loaded home
   device) and the routed experts placed across devices; under the paper's
   Fig. 3 routing skew the iteration cost is the *max* over per-device
   costs, so frequency-aware placement beats round-robin.  The JSON report
   gains a ``cluster`` section::

       "cluster": {
         "devices": 4,
         "placement": "frequency",
         "straggler_ratio": 1.08,        # slowest device vs device mean
         "alltoall_tokens": 29906.2,     # routed tokens dispatched remotely
         "per_device": [
           {"device": "gpu0", "experts": 2, "expert_load_share": 0.28,
            "kv_blocks": 7687, "kv_peak_used_blocks": 512,
            "kv_utilization_peak": 0.066},
           ...
         ]
       }

   (absent with ``--devices 1``, whose report stays byte-identical to the
   single-device engine);
6. overlap-aware layered serving (``milo serve --overlap
   --replacement-threshold TV``): the iteration cost decomposes per MoE
   layer — each layer gets its own frequency-aware expert placement
   (Fig. 3 skew differs by layer) and its all-to-all dispatch overlaps
   with the next layer's compute, scaled by the device's
   ``overlap_efficiency``.  With a replacement threshold the engine also
   re-packs, once per run, the layers whose true routing drifts from the
   offline profile, paying an expert-weight migration stall over the
   interconnect.  The JSON report gains an ``overlap`` section::

       "overlap": {
         "efficiency": 0.85,
         "hidden_comm_s": 12.4,     # all-to-all seconds hidden under compute
         "overlap_ratio": 0.87,     # hidden / total communication
         "replacements": 1,         # dynamic re-placements triggered
         "migration_s": 0.05        # clock charged for expert migration
       }

7. deterministic observability (``milo serve --trace-events
   --metrics-out`` / ``milo analyze``): a run with telemetry attached —
   :class:`~repro.serving.telemetry.Tracer` lifecycle spans plus a
   :class:`~repro.serving.telemetry.MetricsRegistry` sampling on the
   simulated clock — produces the byte-identical report, a
   Perfetto-loadable Chrome trace, and an
   :func:`~repro.serving.telemetry.analyze_trace` summary whose latency
   numbers reconcile with the report float-for-float (phase breakdown,
   per-device busy attribution, straggler ratio, KV pressure).
8. disaggregated prefill/decode serving (``milo serve --disagg P:D
   --preempt-mode {recompute,swap}``): the device group splits into a
   prefill pool and a decode pool; the iteration that completes a
   request's prefill hands its KV blocks to the least-loaded decode
   device, priced per block over the interconnect, and a load-triggered
   hook rebalances the decode pool.  ``--preempt-mode swap`` turns
   preemption into swap-to-host — the victim keeps its prefill progress
   and is restored over ``DeviceSpec.host_bandwidth`` on re-admission,
   with the recompute-equivalent cost reported alongside.  The JSON
   report gains a ``migration`` section::

       "migration": {
         "prefill_devices": 1, "decode_devices": 2,
         "handoffs": 33, "handoff_blocks": 231, "handoff_s": 0.0022,
         "rebalances": 4, "rebalanced_blocks": 45, "rebalance_s": 0.0004,
         "swaps": 74, "swapped_blocks": 1184, "swap_in_s": 0.0335,
         "recompute_equivalent_s": 2.011   # what recompute would have cost
       }
"""

from repro.analysis.expert_frequency import (
    fig3_layer_frequencies,
    fig3_reference_frequencies,
)
from repro.eval import format_rows
from repro.runtime import OutOfMemoryError
from repro.runtime.backends import (
    GPTQ3bitBackend,
    MarlinBackend,
    MiLoBackend,
    PyTorchFP16Backend,
)
from repro.serving import EngineConfig, ServingEngine, poisson_workload

BACKENDS = {
    "pytorch-fp16": PyTorchFP16Backend,
    "gptq3bit": GPTQ3bitBackend,
    "marlin": lambda: MarlinBackend(serve_asymmetric_model=True),
    "milo": MiLoBackend,
}
SEQ_TOKENS = 192  # 128 prompt + 64 decode


def kv_capacity() -> None:
    print("== 1. Concurrent-sequence capacity (Mixtral-8x7B, A100-40GB) ==")
    rows = []
    for name, factory in BACKENDS.items():
        config = EngineConfig(max_batch_size=100_000)  # let KV capacity bind
        try:
            engine = ServingEngine(factory(), "mixtral-8x7b", config)
            rows.append(
                {
                    "backend": name,
                    "kv_blocks": engine.block_manager.num_blocks,
                    f"max batch @ {SEQ_TOKENS} tok": engine.max_batch_size(SEQ_TOKENS),
                }
            )
        except OutOfMemoryError as exc:
            rows.append(
                {
                    "backend": name,
                    "kv_blocks": f"OOM (+{exc.deficit_gb:.0f} GB)",
                    f"max batch @ {SEQ_TOKENS} tok": 0,
                }
            )
    print(format_rows(rows))


def serve_comparison() -> None:
    print("\n== 2. Poisson workload, 120 requests @ 6 QPS (Mixtral-8x7B) ==")
    workload = poisson_workload(120, qps=6.0, seed=0)
    rows = []
    for name, factory in BACKENDS.items():
        try:
            report = ServingEngine(factory(), "mixtral-8x7b").run(workload)
        except OutOfMemoryError:
            rows.append({"backend": name, "qps": "OOM", "ttft_p50_ms": "-",
                         "ttft_p95_ms": "-", "tpot_p50_ms": "-", "peak_batch": "-"})
            continue
        rows.append(
            {
                "backend": name,
                "qps": round(report.sustained_qps, 2),
                "ttft_p50_ms": round(report.ttft["p50"] * 1e3, 1),
                "ttft_p95_ms": round(report.ttft["p95"] * 1e3, 1),
                "tpot_p50_ms": round(report.tpot["p50"] * 1e3, 2),
                "peak_batch": report.peak_batch,
            }
        )
    print(format_rows(rows))


def load_sweep() -> None:
    print("\n== 3. MiLo backend under increasing offered load ==")
    rows = []
    for qps in (2.0, 8.0, 32.0, 64.0):
        report = ServingEngine(MiLoBackend(), "mixtral-8x7b").run(
            poisson_workload(150, qps=qps, seed=0)
        )
        rows.append(
            {
                "offered_qps": qps,
                "sustained_qps": round(report.sustained_qps, 2),
                "ttft_p95_ms": round(report.ttft["p95"] * 1e3, 1),
                "tpot_p95_ms": round(report.tpot["p95"] * 1e3, 2),
                "peak_batch": report.peak_batch,
                "mean_batch_tokens": round(report.mean_batch_tokens, 1),
            }
        )
    print(format_rows(rows))


def policy_comparison() -> None:
    print("\n== 4. KV allocation policies on a KV-bound workload (MiLo) ==")
    # A 17 GB activation/workspace reserve leaves a tight KV pool on the same
    # 40 GB device, so the allocation policy decides how many sequences run.
    workload = poisson_workload(
        150, qps=16.0, seed=0, mean_prompt_tokens=128, mean_new_tokens=256, length_jitter=0.0
    )
    rows = []
    for policy in ("reserve", "ondemand"):
        for chunk in (None, 64):
            config = EngineConfig(
                max_batch_size=100_000, kv_policy=policy, prefill_chunk=chunk, reserve_gb=17.0
            )
            report = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload)
            rows.append(
                {
                    "kv_policy": policy,
                    "prefill_chunk": chunk or "-",
                    "peak_batch": report.peak_batch,
                    "qps": round(report.sustained_qps, 2),
                    "ttft_p50_s": round(report.ttft["p50"], 2),
                    "preemptions": report.preemptions,
                    "recomputed_tok": report.recomputed_tokens,
                    "kv_util_peak": round(report.kv_utilization_peak, 3),
                }
            )
    print(format_rows(rows))


def cluster_comparison() -> None:
    print("\n== 5. Expert-parallel scaling under Fig. 3 routing skew (MiLo) ==")
    # DeepSeek-grade skew (11.7x max/min) on Mixtral's 8 experts: hot experts
    # make whichever device hosts them the per-iteration straggler.
    freqs = tuple(fig3_reference_frequencies(8, imbalance_ratio=11.7))
    workload = poisson_workload(
        150, qps=24.0, seed=0, mean_prompt_tokens=128, mean_new_tokens=192, length_jitter=0.0
    )
    rows = []
    for devices in (1, 2, 4):
        for placement in ("balanced", "frequency"):
            if devices == 1 and placement == "frequency":
                continue  # placement is moot on one device
            config = EngineConfig(
                max_batch_size=100_000, kv_policy="ondemand", reserve_gb=17.0,
                devices=devices, placement=placement, expert_frequencies=freqs,
            )
            report = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload)
            cluster = report.to_dict().get("cluster")
            rows.append(
                {
                    "devices": devices,
                    "placement": placement if devices > 1 else "-",
                    "qps": round(report.sustained_qps, 2),
                    "ttft_p50_s": round(report.ttft["p50"], 2),
                    "straggler": round(cluster["straggler_ratio"], 3) if cluster else 1.0,
                    "alltoall_tok": int(cluster["alltoall_tokens"]) if cluster else 0,
                    "experts/dev": (
                        "/".join(str(p["experts"]) for p in cluster["per_device"])
                        if cluster
                        else "8"
                    ),
                }
            )
    print(format_rows(rows))


def overlap_comparison() -> None:
    print("\n== 6. Serial vs overlap-aware layered cost model (MiLo, 4 dev) ==")
    # Same offered load as section 5; the overlap rows add per-layer
    # placements (Fig. 3 skew varies by layer), communication hidden under
    # the next layer's compute, and drift-triggered re-placement.
    freqs = tuple(fig3_reference_frequencies(8, imbalance_ratio=11.7))
    layer_rows = tuple(tuple(row) for row in fig3_layer_frequencies(32, 8))
    workload = poisson_workload(
        150, qps=24.0, seed=0, mean_prompt_tokens=128, mean_new_tokens=192, length_jitter=0.0
    )
    rows = []
    for mode in ("serial", "overlap"):
        config = EngineConfig(
            max_batch_size=100_000, kv_policy="ondemand", reserve_gb=17.0,
            devices=4, placement="frequency", expert_frequencies=freqs,
            **(
                dict(
                    overlap=True,
                    layer_frequencies=layer_rows,
                    replacement_threshold=0.1,
                )
                if mode == "overlap"
                else {}
            ),
        )
        report = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload)
        as_dict = report.to_dict()
        overlap = as_dict.get("overlap")
        rows.append(
            {
                "mode": mode,
                "qps": round(report.sustained_qps, 2),
                "sim_time_s": round(report.sim_time_s, 2),
                "straggler": round(as_dict["cluster"]["straggler_ratio"], 3),
                "overlap_ratio": round(overlap["overlap_ratio"], 3) if overlap else "-",
                "hidden_ms": round(overlap["hidden_comm_s"] * 1e3, 1) if overlap else "-",
                "repl": overlap["replacements"] if overlap else "-",
            }
        )
    print(format_rows(rows))


def telemetry_tour() -> None:
    print("\n== 7. Deterministic observability (MiLo, 4 dev, overlap) ==")
    from repro.serving import MetricsRegistry, Tracer, analyze_trace

    workload = poisson_workload(num_requests=120, qps=20.0, seed=11)
    config = EngineConfig(devices=4, overlap=True)
    engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
    tracer, metrics = Tracer(), MetricsRegistry(interval=0.5)
    engine.enable_telemetry(tracer=tracer, metrics=metrics)
    report = engine.run(workload)
    summary = analyze_trace(tracer.events, metrics.samples, tracer.meta)

    kinds: dict[str, int] = {}
    for event in tracer.events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    print(f"events: {sum(kinds.values())} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(kinds.items()))})")
    print(f"metrics samples: {len(metrics.samples)} @ 0.5 sim-s interval")
    phases = summary["phases"]
    print("phase shares: " + "  ".join(
        f"{name}={phases[name]['share']:.1%}"
        for name in ("queued", "prefill", "decode")
    ))
    print("device busy: " + "  ".join(
        f"{row['device']}={row['busy_frac']:.1%}" for row in summary["devices"]
    ))
    # The analyzer's latency summaries are the report's, float for float.
    assert summary["ttft_s"] == report.to_dict()["ttft_s"]
    print(f"analyze ttft_s == report ttft_s: {summary['ttft_s']}")
    print(f"straggler ratio: {summary['straggler']['ratio']:.4f}  "
          f"kv peak utilization: {summary['kv']['peak_utilization']:.1%}")


def disagg_comparison() -> None:
    print("\n== 8. Disaggregated prefill/decode + swap preemption (MiLo) ==")
    workload_kwargs = dict(
        num_requests=40, qps=60.0, seed=13, mean_prompt_tokens=96,
        mean_new_tokens=96,
    )

    def run(label: str, **config_kwargs: object) -> dict:
        config = EngineConfig(
            devices=4, kv_policy="ondemand", block_size=8,
            max_batch_size=1000, **config_kwargs,  # type: ignore[arg-type]
        )
        engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
        # Shrink the pools so preemption pressure is real at demo scale.
        for pool in engine.block_manager.pools:
            pool.num_blocks = 40
        report = engine.run(poisson_workload(**workload_kwargs))
        out = report.to_dict()
        row = {
            "config": label,
            "sim_s": round(report.sim_time_s, 2),
            "qps": round(report.sustained_qps, 2),
            "preempt": report.preemptions,
        }
        migration = out.get("migration", {})
        row["handoffs"] = migration.get("handoffs", 0)
        row["swap_in_s"] = round(migration.get("swap_in_s", 0.0), 4)
        row["recompute_eq_s"] = round(
            migration.get("recompute_equivalent_s", 0.0), 3
        )
        return row

    rows = [
        run("colocated 4dev"),
        run("disagg 1:3", prefill_devices=1, decode_devices=3),
        run("disagg 2:2", prefill_devices=2, decode_devices=2),
        run("disagg 1:3 + swap", prefill_devices=1, decode_devices=3,
            preempt_mode="swap"),
    ]
    print(format_rows(rows))
    print("swap resumes for ~1/50th of what recompute would cost here — the "
          "migration section prices both so the tradeoff is explicit.")


if __name__ == "__main__":
    kv_capacity()
    serve_comparison()
    load_sweep()
    policy_comparison()
    cluster_comparison()
    overlap_comparison()
    telemetry_tour()
    disagg_comparison()

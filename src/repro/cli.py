"""Command-line interface mirroring the MiLo artifact's workflow scripts.

Four subcommands; the first three correspond to the stages of the paper's
artifact appendix, the fourth goes beyond it:

* ``milo quantize``   — quantize a mini model with RTN / HQQ / GPTQ / MiLo and
  report memory and quantization time (the role of ``MiLo_quant_main.py``).
* ``milo evaluate``   — quantize and then evaluate perplexity plus the task
  suite, printing a Table-3-style row per method.
* ``milo kernel``     — run the kernel performance model for the Appendix C
  GEMM shapes (the role of ``kernel_GeMM_performance.sh``).
* ``milo serve``      — run the continuous-batching serving simulation
  (:mod:`repro.serving`) for a full-size model on one of the Table 7
  backends, under a synthetic Poisson workload or a replayed trace, and
  print a JSON report with p50/p95 TTFT, TPOT and sustained QPS.  With
  ``--trace-events`` / ``--metrics-out`` it also records the deterministic
  sim-clock observability streams (:mod:`repro.serving.telemetry`).
* ``milo analyze``    — summarize a recorded serving trace: queueing-delay
  breakdown, per-device busy/straggler attribution, KV-pressure timeline.
* ``milo lint``       — run the AST-based determinism & invariant linter
  (:mod:`repro.analysis.lint`) over the source tree; exits nonzero on any
  finding not covered by the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from .analysis.lint.cli import add_lint_parser, run_lint
from .core import COMPRESSION_METHODS, ModelCompressor, UniformRank, build_strategy
from .core.rank_policy import DenseRank, KurtosisRank, SparseRank
from .data import zipfian_corpus
from .eval import EvaluationEnvironment, EvaluationHarness, format_rows
from .kernels import UnsupportedBatchError, default_backends
from .kernels.device import A100_40GB, A100_80GB
from .models import REFERENCE_FFN_SHAPES, available_models, build_model
from .models.registry import FULL_MODEL_SPECS
from .serving.cluster import PLACEMENT_POLICIES
from .serving.kv_cache import ALLOCATION_POLICIES
from .serving.scheduler import ADMISSION_MODES, PREEMPT_MODES

__all__ = ["main", "build_parser"]

#: Serving backends selectable from the command line, keyed by CLI name.
SERVE_BACKENDS = ("milo", "fp16", "gptq3bit", "marlin")
SERVE_DEVICES = {"a100-40gb": A100_40GB, "a100-80gb": A100_80GB}
#: Derived from the allocation-policy registry so policies registered there
#: appear on ``--kv-policy`` automatically (no hardcoded duplicate to drift).
SERVE_KV_POLICIES = tuple(sorted(ALLOCATION_POLICIES))
#: Likewise derived from the expert-placement registry (``--placement``).
SERVE_PLACEMENTS = tuple(sorted(PLACEMENT_POLICIES))


def _make_policy(args: argparse.Namespace, config) -> object | None:
    if args.strategy:
        return build_strategy(args.strategy, config)
    policies = []
    if args.dense_rank:
        policies.append(DenseRank(args.dense_rank))
    if args.sparse_rank:
        policies.append(SparseRank(args.sparse_rank))
    if args.kurtosis_rank:
        policies.append(KurtosisRank(args.kurtosis_rank))
    if args.uniform_rank:
        policies.append(UniformRank(args.uniform_rank))
    if not policies:
        return None
    if len(policies) == 1:
        return policies[0]
    from .core.rank_policy import CompositeRankPolicy

    return CompositeRankPolicy(policies)


def _compress(args: argparse.Namespace):
    model = build_model(args.model)
    policy = _make_policy(args, model.config)
    calibration = None
    if args.method == "gptq":
        calibration = zipfian_corpus(
            model.config.vocab_size, num_sequences=32, seq_len=32, seed=args.seed
        ).tokens
    compressor = ModelCompressor(
        method=args.method,
        bits=args.bits,
        group_size=args.group_size,
        rank_policy=policy,
        calibration_tokens=calibration,
        compensator_bits=args.compensator_bits,
    )
    return compressor.compress(model)


def cmd_quantize(args: argparse.Namespace) -> int:
    model, report = _compress(args)
    summary = {
        "model": args.model,
        "method": report.method,
        "bits": report.bits,
        "group_size": report.group_size,
        "memory_mb": round(report.memory_bytes / 2**20, 3),
        "fp16_memory_mb": round(report.fp16_memory_bytes / 2**20, 3),
        "compression_ratio": round(report.compression_ratio, 4),
        "quant_time_s": round(report.quant_time_s, 3),
        "average_rank": round(report.average_rank, 2),
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    teacher = build_model(args.model)
    environment = EvaluationEnvironment.from_teacher(
        teacher,
        num_sequences=args.eval_sequences,
        seq_len=args.eval_seq_len,
        num_task_items=args.task_items,
        seed=args.seed,
    )
    harness = EvaluationHarness(environment)
    rows = [harness.evaluate(teacher, "fp16").as_row()]
    model, report = _compress(args)
    row = harness.evaluate(model, f"{args.method}-int{args.bits}").as_row()
    row["quant_time_s"] = round(report.quant_time_s, 3)
    rows.append(row)
    print(format_rows(rows, title=f"Evaluation on {args.model}"))
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    if args.gemm_model not in REFERENCE_FFN_SHAPES:
        print(f"unknown GEMM model {args.gemm_model!r}; known: {sorted(REFERENCE_FFN_SHAPES)}")
        return 2
    shapes = REFERENCE_FFN_SHAPES[args.gemm_model]
    rows = []
    for batch in args.batch_sizes:
        for name, sim in default_backends(asymmetric_model=args.asymmetric).items():
            try:
                tflops = sim.mlp_tflops(shapes, batch)
                latency = sim.mlp_latency(shapes, batch)
            except UnsupportedBatchError:
                tflops, latency = float("nan"), float("nan")
            rows.append(
                {
                    "batch": batch,
                    "backend": name,
                    "tflops": round(tflops, 2),
                    "latency_us": round(latency * 1e6, 2),
                }
            )
    print(format_rows(rows, title=f"GEMM throughput model for {args.gemm_model} MLP"))
    return 0


def _make_serve_backend(name: str, device_name: str):
    from .runtime.backends import (
        GPTQ3bitBackend,
        MarlinBackend,
        MiLoBackend,
        PyTorchFP16Backend,
    )

    device = SERVE_DEVICES[device_name]
    factories = {
        "milo": lambda: MiLoBackend(device=device),
        "fp16": lambda: PyTorchFP16Backend(device=device),
        "gptq3bit": lambda: GPTQ3bitBackend(device=device),
        "marlin": lambda: MarlinBackend(serve_asymmetric_model=True, device=device),
    }
    return factories[name]()


def cmd_serve(args: argparse.Namespace) -> int:
    from .runtime.backends import OutOfMemoryError
    from .serving import (
        EngineConfig,
        ServingEngine,
        TraceSchemaError,
        load_trace,
        poisson_workload,
        replay_workload,
    )

    backend = _make_serve_backend(args.backend, args.device)
    try:
        prefill_devices = decode_devices = 0
        if args.disagg is not None:
            head, sep, tail = args.disagg.partition(":")
            if not sep or not head or not tail:
                raise ValueError(
                    f"--disagg takes P:D (prefill:decode device counts), got {args.disagg!r}"
                )
            prefill_devices = int(head)
            decode_devices = int(tail)
        config = EngineConfig(
            block_size=args.block_size,
            max_batch_size=args.max_batch,
            admission=args.admission,
            reserve_gb=args.reserve_gb,
            kv_policy=args.kv_policy,
            prefill_chunk=args.prefill_chunk,
            devices=args.devices,
            placement=args.placement,
            prefill_devices=prefill_devices,
            decode_devices=decode_devices,
            preempt_mode=args.preempt_mode,
            overlap=args.overlap,
            replacement_threshold=args.replacement_threshold,
            debug_checks=not args.no_debug_checks,
        )
    except ValueError as exc:
        print(f"invalid serving config: {exc}", file=sys.stderr)
        return 2
    try:
        engine = ServingEngine(backend, args.model, config)
    except OutOfMemoryError as exc:
        print(
            json.dumps(
                {
                    "backend": backend.name,
                    "model": args.model,
                    "error": "out-of-memory",
                    "detail": str(exc),
                    "required_gb": exc.required_gb,
                    "available_gb": exc.available_gb,
                    "device": exc.device,
                },
                indent=2,
            )
        )
        return 1
    try:
        if args.trace:
            try:
                workload = load_trace(args.trace)
            except (OSError, TraceSchemaError) as exc:
                print(f"invalid trace: {exc}", file=sys.stderr)
                return 2
        elif args.replay:
            with open(args.replay) as fh:
                workload = replay_workload(json.load(fh))
        else:
            workload = poisson_workload(
                num_requests=args.requests,
                qps=args.qps,
                seed=args.seed,
                mean_prompt_tokens=args.prompt_tokens,
                mean_new_tokens=args.max_new_tokens,
                length_jitter=args.length_jitter,
                shared_prefix_tokens=args.shared_prefix_tokens,
                prefix_groups=args.prefix_groups,
            )
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid workload: {exc}", file=sys.stderr)
        return 2
    tracer = None
    metrics = None
    if args.trace_events or args.metrics_out:
        from .serving.telemetry import MetricsRegistry, Tracer

        if args.trace_events:
            tracer = Tracer()
        if args.metrics_out:
            try:
                metrics = MetricsRegistry(interval=args.metrics_interval)
            except ValueError as exc:
                print(f"invalid serving config: {exc}", file=sys.stderr)
                return 2
        engine.enable_telemetry(tracer=tracer, metrics=metrics)
    report = engine.run(workload).to_dict()
    if tracer is not None:
        if args.trace_events.endswith(".jsonl"):
            tracer.write_jsonl(args.trace_events)
        else:
            from .serving.telemetry import chrome_trace

            with open(args.trace_events, "w") as fh:
                json.dump(chrome_trace(tracer, metrics), fh)
                fh.write("\n")
    if metrics is not None:
        metrics.write_jsonl(args.metrics_out)
    if not args.per_request:
        report.pop("requests")
        report.pop("completion_order")
    text = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .serving.telemetry import analyze_trace, load_metrics_file, load_trace_file

    try:
        events, samples, meta = load_trace_file(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 2
    if args.metrics:
        try:
            samples = load_metrics_file(args.metrics)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"invalid metrics file: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(analyze_trace(events, samples, meta), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="milo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="mixtral-mini", choices=available_models())
        p.add_argument("--method", default="milo", choices=COMPRESSION_METHODS)
        p.add_argument("--bits", type=int, default=3)
        p.add_argument("--group-size", type=int, default=64)
        p.add_argument("--compensator-bits", type=int, default=3)
        p.add_argument("--strategy", default=None, help="named paper strategy, e.g. mixtral-s1")
        p.add_argument("--dense-rank", type=int, default=0)
        p.add_argument("--sparse-rank", type=int, default=0)
        p.add_argument("--kurtosis-rank", type=int, default=0)
        p.add_argument("--uniform-rank", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("quantize", help="quantize a mini model and report memory / time")
    add_common(q)
    q.set_defaults(func=cmd_quantize)

    e = sub.add_parser("evaluate", help="quantize and evaluate perplexity + tasks")
    add_common(e)
    e.add_argument("--eval-sequences", type=int, default=16)
    e.add_argument("--eval-seq-len", type=int, default=32)
    e.add_argument("--task-items", type=int, default=96)
    e.set_defaults(func=cmd_evaluate)

    k = sub.add_parser("kernel", help="kernel GEMM performance model")
    k.add_argument("--gemm-model", default="mixtral-8x7b")
    k.add_argument("--batch-sizes", type=int, nargs="+", default=[1, 16, 32])
    k.add_argument("--asymmetric", action="store_true")
    k.set_defaults(func=cmd_kernel)

    s = sub.add_parser(
        "serve", help="continuous-batching serving simulation (JSON report)"
    )
    s.add_argument("--backend", default="milo", choices=SERVE_BACKENDS)
    s.add_argument("--model", default="mixtral-8x7b", choices=sorted(FULL_MODEL_SPECS))
    s.add_argument("--device", default="a100-40gb", choices=sorted(SERVE_DEVICES))
    s.add_argument("--qps", type=float, default=8.0, help="Poisson arrival rate")
    s.add_argument("--requests", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--prompt-tokens", type=int, default=128, help="mean prompt length")
    s.add_argument("--max-new-tokens", type=int, default=64, help="mean decode budget")
    s.add_argument("--length-jitter", type=float, default=0.25)
    s.add_argument(
        "--shared-prefix-tokens",
        type=int,
        default=0,
        help="prepend a shared prompt prefix of N tokens to every Poisson request "
        "(modeling common system prompts; enables prefix caching)",
    )
    s.add_argument(
        "--prefix-groups",
        type=int,
        default=1,
        help="number of distinct shared prefixes requests are drawn from",
    )
    s.add_argument("--block-size", type=int, default=16, help="KV block size in tokens")
    s.add_argument("--max-batch", type=int, default=64)
    s.add_argument("--admission", default="queue", choices=ADMISSION_MODES)
    s.add_argument("--reserve-gb", type=float, default=1.0)
    s.add_argument(
        "--kv-policy",
        default="reserve",
        choices=sorted(SERVE_KV_POLICIES),
        help="KV allocation: full-extent reservation or on-demand growth with preemption",
    )
    s.add_argument(
        "--prefill-chunk",
        type=int,
        default=None,
        help="feed at most N prompt tokens per iteration (Sarathi-style chunked prefill)",
    )
    s.add_argument(
        "--devices",
        type=int,
        default=1,
        help="serve expert-parallel on N copies of the device: KV block pool "
        "sharded per device, experts placed by --placement, iteration cost = "
        "max over per-device costs (1 = the single-device engine, bit-for-bit)",
    )
    s.add_argument(
        "--placement",
        default="balanced",
        choices=SERVE_PLACEMENTS,
        help="expert placement across devices: round-robin by id ('balanced') "
        "or Fig. 3 skew-aware greedy packing ('frequency')",
    )
    s.add_argument(
        "--disagg",
        default=None,
        metavar="P:D",
        help="DistServe-style disaggregation: the first P devices prefill, "
        "the last D decode (P + D must equal --devices); completed prefills "
        "hand their KV blocks to the least-loaded decode device over the "
        "interconnect, and the report gains a 'migration' section",
    )
    s.add_argument(
        "--preempt-mode",
        default="recompute",
        choices=PREEMPT_MODES,
        help="what preemption does to the victim's KV: discard and re-prefill "
        "on resume ('recompute') or park it in host memory and restore it "
        "over the PCIe link on re-admission ('swap'); the migration section "
        "prices both so the modes are directly comparable",
    )
    s.add_argument(
        "--overlap",
        action="store_true",
        help="overlap-aware layered cost model (requires --devices > 1): each "
        "MoE layer gets its own expert placement and max-over-devices compute "
        "term, and layer l's all-to-all overlaps with layer l+1's compute "
        "(step = sum_l of max-ish(compute_l, comm_{l-1}), scaled by the "
        "device's overlap_efficiency); the report gains an 'overlap' section "
        "with hidden_comm_s / overlap_ratio / replacements / migration_s",
    )
    s.add_argument(
        "--replacement-threshold",
        type=float,
        default=None,
        metavar="TV",
        help="with --overlap: once per run, after the first few batch "
        "compositions, re-pack a layer's experts (LPT) when its true routing "
        "frequencies drift more than this total-variation distance from the "
        "profile its placement was packed for; moved expert weights are "
        "priced over the interconnect as a migration stall (default: "
        "dynamic re-placement off)",
    )
    workload_source = s.add_mutually_exclusive_group()
    workload_source.add_argument(
        "--replay", default=None, help="JSON trace of [arrival, prompt, decode[, priority]] rows"
    )
    workload_source.add_argument(
        "--trace",
        default=None,
        help="JSONL trace file of {arrival, prompt, max_new_tokens, priority?, "
        "prefix_id?, prefix_tokens?} records (streamed one line at a time)",
    )
    s.add_argument(
        "--no-debug-checks",
        action="store_true",
        help="skip per-run engine invariant checks (KV-leak audit); the "
        "report is bit-identical either way — benchmarks turn this on",
    )
    s.add_argument("--per-request", action="store_true", help="include per-request records")
    s.add_argument(
        "--report-out",
        "--output",
        dest="output",
        default=None,
        metavar="PATH",
        help="write the JSON report to a file (also printed to stdout)",
    )
    s.add_argument(
        "--trace-events",
        default=None,
        metavar="PATH",
        help="record a deterministic sim-clock lifecycle trace and write it "
        "as Chrome trace-event JSON (open in Perfetto or chrome://tracing); "
        "a PATH ending in .jsonl writes the raw event stream instead",
    )
    s.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="stream scheduler/KV gauges (batch size, queue depth, free "
        "blocks, KV utilization) as JSONL, sampled on a sim-time interval",
    )
    s.add_argument(
        "--metrics-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="sim-seconds between --metrics-out samples (default 1.0)",
    )
    s.set_defaults(func=cmd_serve)

    a = sub.add_parser(
        "analyze",
        help="summarize a serving trace recorded by serve --trace-events",
    )
    a.add_argument(
        "trace", help="trace file: .trace.json (Chrome) or .jsonl (raw stream)"
    )
    a.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="metrics JSONL from --metrics-out (adds the KV-pressure timeline)",
    )
    a.set_defaults(func=cmd_analyze)

    lint = sub.add_parser(
        "lint", help="AST-based determinism & invariant linter"
    )
    add_lint_parser(lint)
    lint.set_defaults(func=run_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    np.seterr(all="ignore")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

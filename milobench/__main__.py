"""One benchmark for the MiLo serving simulator and the MiLo compressor.

Run from the repository root::

    python3 -m milobench --workload serve_disagg_handoff --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps each layer's public calls, prints
the self-time tree and the tracing overhead, and reports the per-layer
metrics.  Human-readable lines go first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metric names and units are the ones ``BENCHMARK.json`` declares.  See
``milobench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SPANS_DIR = REPO / ".milobench"
#: Thread-pool sizes of the BLAS/OpenMP runtimes numpy and scipy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def print_reps(workload, reps) -> None:
    from milobench.measure import rate, ref_s

    print(
        "wall seconds as measured; kernel = calibration kernel ms around the rep; "
        "ref = reference seconds (see README)"
    )
    print(
        f"{'rep':>4} {'inst':>4} {'setup_s':>9} {workload.time_name:>13} {'kernel_ms':>9} "
        f"{'ref ' + workload.time_name:>17} {'ref ' + workload.work_name:>21}  output sha256"
    )
    for i, rep in enumerate(reps):
        print(
            f"{i:>4} {i // 2:>4} {rep.setup_s:9.5f} {rep.run_s:13.5f} {rep.kernel_s * 1e3:9.3f} "
            f"{ref_s(rep, rep.run_s):17.5f} {rate(rep):21.1f}  {rep.digest}"
        )


def print_outputs(reps) -> None:
    """The program's own end-to-end outputs, once per instance and as medians."""
    firsts = reps[0::2]
    for name, (unit, _) in firsts[0].outputs.items():
        values = [r.outputs[name][1] for r in firsts]
        print(
            f"  {name:<20} {statistics.median(values):.6g} {unit}  "
            f"(median over {len(values)} instances; per instance: "
            f"{', '.join(f'{v:.6g}' for v in values)})"
        )


def run_untraced(workload, seed: int, seconds: float):
    from milobench import measure

    reps = measure.untraced_reps(workload, seed, seconds)
    outcome = measure.check(reps)
    print_reps(workload, reps)
    e2e = measure.end_to_end(reps)
    print(f"end-to-end, median over {len(reps)} reps (spread = IQR/median across reps):")
    rows = [
        (workload.work_name, workload.work_unit,
         [measure.rate(r) for r in reps], [r.work / r.run_s for r in reps]),
        (workload.time_name, "s",
         [measure.ref_s(r, r.run_s) for r in reps], [r.run_s for r in reps]),
        ("setup_s", "s", [measure.ref_s(r, r.setup_s) for r in reps], [r.setup_s for r in reps]),
    ]
    for name, unit, ref, wall in rows:
        print(
            f"  {name:<20} {statistics.median(ref):.6g} {unit} reference, spread "
            f"{measure.spread(ref):.1%}  |  {statistics.median(wall):.6g} {unit} wall, "
            f"spread {measure.spread(wall):.1%}"
        )
    print(
        f"  {'calibration kernel':<20} {statistics.median(r.kernel_s for r in reps) * 1e3:.4g} ms "
        f"(reference {measure.REFERENCE_KERNEL_S * 1e3:g} ms)"
    )
    print(f"  {'peak_rss_mb':<20} {e2e['peak_rss_mb']:.1f} MB  (this process)")
    print(
        f"  {'failed_frac':<20} {outcome.failed / outcome.attempted:.6g}  "
        f"({outcome.failed} of {outcome.attempted} {workload.op_name})"
    )
    print_outputs(reps)
    print(
        f"JSON (reference seconds): run_s = {workload.time_name}, work_per_s = "
        f"{workload.work_name} ({workload.work_unit})"
    )
    return outcome, measure.with_units(e2e, "end_to_end")


def run_traced(workload, seed: int, seconds: float):
    from milobench import measure
    from milobench.spans import SpanRecorder, profile, render_tree, write_spans

    recorder = SpanRecorder()
    reps = measure.traced_reps(workload, seed, seconds, recorder)
    outcome = measure.check(reps)
    print_reps(workload, reps)
    spans = recorder.finished()
    prof = profile(spans)
    traced = len(reps) // 2
    print()
    for line in render_tree(prof, f"{workload.name}: self time of {traced} traced reps"):
        print(line)
    untraced_rate = statistics.median(measure.rate(r) for r in reps[0::2])
    traced_rate = statistics.median(measure.rate(r) for r in reps[1::2])
    print(
        f"tracing overhead: traced {workload.work_name} {traced_rate:.6g} vs untraced "
        f"{untraced_rate:.6g} {workload.work_unit} (base: untraced, median of {traced} "
        f"reps) = {traced_rate / untraced_rate:.3f}x, "
        f"{measure.tracing_overhead(reps):.1%} slower"
    )
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{workload.name}-seed{seed}.spans.tsv.gz"
    write_spans(spans, path)
    print(f"{len(spans):,} spans written to {path.relative_to(REPO)}")
    return outcome, measure.with_units(measure.per_layer(prof, reps), "per_layer")


def main(argv: list[str] | None = None) -> int:
    # Before numpy is first imported: one BLAS/OpenMP thread, so a run is
    # one single-threaded process whose timings do not depend on idle cores.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            "milobench: the program's sources (src/repro) are not beside the "
            "benchmark; run it from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from milobench.measure import environment
    from milobench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m milobench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    workload = WORKLOADS[args.workload]

    print(f"milobench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    print(f"environment: {environment()}")
    try:
        run = run_traced if args.trace else run_untraced
        outcome, metrics = run(workload, args.seed, args.seconds)
    except Exception:
        # The run's boundary: report the failure as a result, every
        # operation failed, and exit non-zero.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

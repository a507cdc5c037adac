"""Fig. 8 — quantization time vs MMLU accuracy.

Paper shape: RTN and HQQ are fast but less accurate, GPTQ is the slowest by a
wide margin, and MiLo reaches the best accuracy at roughly 3x less
(full-scale) quantization time than GPTQ.
"""

import pytest

from _helpers import compress_model, format_rows, save_result, save_timing
from repro.quant import project_full_model_time

METHODS = [
    ("RTN", "rtn", None),
    ("HQQ", "hqq", None),
    ("GPTQ", "gptq", None),
    ("MiLo", "milo", "mixtral-s1"),
]


def run_fig8(evaluation_setups):
    teacher, harness = evaluation_setups("mixtral-mini")
    rows, results = [], {}
    for label, method, strategy in METHODS:
        model, report = compress_model("mixtral-mini", method, bits=3, strategy=strategy)
        mmlu = harness.evaluate(model, label, tasks=["mmlu-syn"]).task_scores["mmlu-syn"]
        projected = project_full_model_time(method, 46.7)
        results[label] = {"mmlu": mmlu, "measured_s": report.quant_time_s, "projected_s": projected}
        rows.append(
            {
                "method": label,
                "mmlu_syn": round(mmlu, 2),
                "projected_fullscale_time_s": round(projected, 0),
            }
        )
    return rows, results


@pytest.mark.benchmark(group="fig8")
def test_fig8_quantization_time_vs_accuracy(benchmark, evaluation_setups):
    rows, results = benchmark.pedantic(
        run_fig8, args=(evaluation_setups,), rounds=1, iterations=1
    )
    save_result(
        "fig8_time_vs_accuracy",
        format_rows(rows, title="Fig. 8: quantization time vs MMLU accuracy (Mixtral)"),
    )
    save_timing(
        "fig8_time_vs_accuracy",
        {f"{label}.measured_quant_time_s": r["measured_s"] for label, r in results.items()},
    )

    # MiLo reaches the best accuracy of all methods.
    assert results["MiLo"]["mmlu"] >= max(r["mmlu"] for r in results.values()) - 1e-9

    # Calibration-free methods are fast; GPTQ is the slowest at full scale and
    # MiLo sits in between, at least 3x cheaper than GPTQ (the paper's claim).
    assert results["RTN"]["projected_s"] < results["HQQ"]["projected_s"]
    assert results["HQQ"]["projected_s"] < results["MiLo"]["projected_s"]
    assert results["MiLo"]["projected_s"] * 3 <= results["GPTQ"]["projected_s"]

    # Measured mini-scale times keep RTN fastest.
    assert results["RTN"]["measured_s"] <= min(
        results["HQQ"]["measured_s"], results["GPTQ"]["measured_s"], results["MiLo"]["measured_s"]
    )

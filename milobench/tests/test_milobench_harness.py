"""Tests of the benchmark's own harness (not of the program it measures)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from milobench import measure
from milobench.measure import with_units
from milobench.spans import Profile, Spans, SpanRecorder, profile, render_tree, self_times
from milobench.workloads import WORKLOADS, CompressWorkload, Rep, ServeWorkload

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_of_nested_span_tree():
    # root [0, 10] holds b [1, 4] (which holds c [2, 3] and f [3.5, 4.5],
    # the latter clipped to b's end) and two overlapping children d [5, 9]
    # and e [6, 8], whose union covers 4 s, not 6.
    spans = Spans()
    for row in [
        ("milobench.rep", 0.0, 10.0, -1, 0),
        ("serving.scheduler.admit", 1.0, 4.0, 0, 0),
        ("serving.kv_cache.admit", 2.0, 3.0, 1, 0),
        ("serving.kv_cache.grow", 3.5, 4.5, 1, 0),
        ("serving.engine.run", 5.0, 9.0, 0, 0),
        ("serving.engine.report", 6.0, 8.0, 0, 0),
    ]:
        spans.add(*row)
    assert list(self_times(spans)) == pytest.approx([3.0, 1.5, 1.0, 1.0, 4.0, 2.0])
    prof = profile(spans)
    assert prof.total_s == pytest.approx(10.0)
    assert prof.layer_self_s() == pytest.approx(
        {"milobench": 3.0, "serving.scheduler": 1.5, "serving.kv_cache": 2.0, "serving.engine": 6.0}
    )
    tree = render_tree(prof, "t")
    assert tree[1].startswith("Total: 10.0000 s")
    assert "serving.engine" in tree[2] and "BOTTLENECK" in tree[2]
    assert sum("BOTTLENECK" in line for line in tree) == 1


def test_recorded_self_times_add_up_to_the_root():
    recorder = SpanRecorder()
    inner = recorder.wrap("serving.kv_cache.grow", lambda: sum(range(1000)))
    outer = recorder.wrap("serving.scheduler.admit", lambda: [inner() for _ in range(3)])
    seen = []
    counted = recorder.wrap("serving.scheduler.evict_finished", lambda: [1, 2], seen.append)
    with recorder.span("milobench.rep"):
        outer()
        counted()
    prof = profile(recorder.finished())
    assert prof.calls == {
        "milobench.rep": 1,
        "serving.scheduler.admit": 1,
        "serving.kv_cache.grow": 3,
        "serving.scheduler.evict_finished": 1,
    }
    assert seen == [[1, 2]]
    assert sum(self_times(recorder.spans)) == pytest.approx(prof.total_s, rel=1e-9)


def _fake_rep(counters: dict[str, float]) -> Rep:
    return Rep(0.1, 1.0, 100.0, 10, 0, "d", [], {}, counters, measure.REFERENCE_KERNEL_S)


def test_metric_names_are_declared_and_print_with_units():
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[kind]]
        assert len(names) == len(set(names)), kind
        for metric in SPEC[kind]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}

    reps = [_fake_rep({}), _fake_rep({"engine.iterations": 5})] * 2
    # A contended host on which the kernel takes twice as long, and the
    # program 2 ** KERNEL_EXPONENT as long, reads the same reference time.
    slow = _fake_rep({})
    slow.run_s, slow.kernel_s = 2.0**measure.KERNEL_EXPONENT, 2 * measure.REFERENCE_KERNEL_S
    assert measure.ref_s(slow, slow.run_s) == pytest.approx(1.0)
    assert measure.end_to_end(reps + [slow])["run_s"] == pytest.approx(1.0)
    printed = with_units(measure.end_to_end(reps), "end_to_end")
    assert [m["name"] for m in SPEC["end_to_end"]] == list(printed)
    prof = Profile(2.0, {"serving.engine.run": 1.5}, {"serving.engine.run": 1.0}, {"serving.engine.run": 2})
    printed = with_units(measure.per_layer(prof, reps), "per_layer")
    assert [m["name"] for m in SPEC["per_layer"]] == list(printed)
    for metric in SPEC["per_layer"]:
        assert printed[metric["name"]]["unit"] == metric["unit"]
    assert printed["engine.run.self_share"]["value"] == pytest.approx(0.5)
    assert printed["engine.iterations"]["value"] == pytest.approx(5.0)


def test_workloads_are_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert NAME.fullmatch(w["name"]) and "\n" not in w["why"] and len(w["why"]) <= 200


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if isinstance(w, ServeWorkload)])
def test_seed_selects_the_serve_workload(name):
    workload = WORKLOADS[name]

    def rows(seed, instance):
        return [
            (r.arrival_time, r.prompt_tokens, r.max_new_tokens, r.prefix_id)
            for r in workload.build_requests(seed, instance)
        ]

    first = rows(1, 0)
    assert len(first) == workload.requests
    assert rows(1, 0) == first
    assert rows(2, 0) != first
    assert rows(1, 1) != first


def test_seed_selects_the_compressed_model():
    (workload,) = [w for w in WORKLOADS.values() if isinstance(w, CompressWorkload)]

    def weights(seed):
        model, _ = workload.build_model(seed, 0)
        return np.concatenate([lin.weight.data.ravel() for _, _, lin in model.iter_quantizable()])

    first = weights(1)
    assert np.array_equal(weights(1), first)
    assert not np.array_equal(weights(2), first)


def _git_status() -> str | None:
    if shutil.which("git") is None:
        return None
    probe = subprocess.run(
        ["git", "status", "--porcelain"], cwd=REPO, capture_output=True, text=True
    )
    return probe.stdout if probe.returncode == 0 else None


def test_traced_run_leaves_the_tree_as_it_was():
    before = _git_status()
    if before is None:
        pytest.skip("not a git checkout")
    run = subprocess.run(
        [sys.executable, "-m", "milobench", "--workload", "serve_colocated_steady",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "BOTTLENECK" in run.stdout
    assert _git_status() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "milobench", tmp_path / "milobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "-m", "milobench", "--workload", "serve_colocated_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode != 0
    assert run.stdout == ""

"""Overlap-aware layered cost model: properties, equivalence, re-placement.

Three claims of the ``--overlap`` engine mode are pinned here:

* **never slower than serial** — for *any* draw of per-layer compute and
  communication times and any efficiency in [0, 1],
  :func:`~repro.serving.engine.overlap_step_seconds` is monotonically <=
  the serial layered cost (hiding work cannot add time), both as a pure
  function under Hypothesis and at the engine's iteration-cost layer under
  random (tokens, placement, frequencies) draws;
* **efficiency 0 == serial, bit for bit** — with ``overlap_efficiency=0``
  the layered step reproduces the no-overlap accumulation
  ``sum_l (compute_l + comm_{l-1})`` exactly (same float operations:
  ``x - 0.0 == x`` in IEEE arithmetic);
* **dynamic re-placement** — with a ``replacement_threshold`` each run
  makes one decision (one ``CostModel.repack`` call, after ``DRIFT_WINDOW``
  distinct batch compositions) that re-packs the layers whose normalized
  true routing drifted from the profile, so scaled routing rows re-place
  exactly like unscaled ones; it charges a migration stall to the clock,
  bumps the placement epoch stamped onto later admissions, and stays
  byte-identical to the reference loop's periodic drift window (covered in
  ``test_engine_equivalence.py``) and across repeated ``run()`` calls on
  one engine.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.expert_frequency import fig3_layer_frequencies
from repro.kernels.device import A100_80GB
from repro.runtime.backends import MiLoBackend
from repro.serving import (
    EngineConfig,
    ServingEngine,
    overlap_step_seconds,
    poisson_workload,
)
from repro.serving.cost import CostModel

MODEL = "mixtral-8x7b"


def make_engine(efficiency: float | None = None, **config_kwargs) -> ServingEngine:
    device = A100_80GB
    if efficiency is not None:
        device = dataclasses.replace(A100_80GB, overlap_efficiency=efficiency)
    config = EngineConfig(**{"devices": 4, "overlap": True, **config_kwargs})
    return ServingEngine(MiLoBackend(device=device), MODEL, config)


def serial_layered_step(compute_s, comm_s) -> float:
    """The no-overlap accumulation ``overlap_step_seconds`` claims to match
    at efficiency 0: layer compute plus the previous layer's (unhidden)
    communication, in the identical float-operation order."""
    step = 0.0
    carry = 0.0
    for compute, comm in zip(compute_s, comm_s):
        step += compute + carry
        carry = comm
    step += carry
    return step


# -- pure-function properties ------------------------------------------------
LAYER_TIMES = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=64
)


@given(
    compute_s=LAYER_TIMES,
    comm_s=LAYER_TIMES,
    efficiency=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_overlap_never_exceeds_serial(compute_s, comm_s, efficiency):
    n = min(len(compute_s), len(comm_s))
    compute_s, comm_s = compute_s[:n], comm_s[:n]
    step, hidden = overlap_step_seconds(compute_s, comm_s, efficiency)
    serial = serial_layered_step(compute_s, comm_s)
    assert 0.0 <= hidden
    assert step <= serial  # hiding communication can only remove time
    # Full hiding is bounded by the ideal pipeline: nothing below the
    # compute critical path alone.
    assert step >= sum(compute_s)


@given(compute_s=LAYER_TIMES, comm_s=LAYER_TIMES)
@settings(max_examples=300, deadline=None)
def test_efficiency_zero_is_serial_bit_for_bit(compute_s, comm_s):
    n = min(len(compute_s), len(comm_s))
    compute_s, comm_s = compute_s[:n], comm_s[:n]
    step, hidden = overlap_step_seconds(compute_s, comm_s, 0.0)
    assert hidden == 0.0
    assert step == serial_layered_step(compute_s, comm_s)  # byte-identical


# -- engine iteration-cost properties ----------------------------------------
@given(
    tokens=st.integers(min_value=1, max_value=4096),
    split=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    efficiency=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_engine_overlap_step_never_exceeds_serial(tokens, split, efficiency, seed):
    """Any (tokens, home split, per-layer frequencies) draw: the overlap
    iteration step at efficiency e is <= the same engine's step at 0."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = rng.random((32, 8)) + 1e-3
    rows = tuple(tuple(row / row.sum()) for row in rows)
    # Apportion the batch's home tokens by the drawn split.
    total = sum(split) or 1.0
    home = [int(tokens * s / total) for s in split]
    home[0] += tokens - sum(home)
    home_key = tuple(home)

    overlapped = make_engine(efficiency, layer_frequencies=rows)
    serial = make_engine(0.0, layer_frequencies=rows)
    step_e = overlapped.cost_model.cost(tokens, home_key).step
    step_0 = serial.cost_model.cost(tokens, home_key).step
    assert step_e <= step_0


# -- report-level behavior ----------------------------------------------------
WORKLOAD = dict(num_requests=60, qps=25.0, seed=31, mean_new_tokens=48)


def test_overlap_report_section():
    report = make_engine(0.9).run(poisson_workload(**WORKLOAD)).to_dict()
    section = report["overlap"]
    assert section["efficiency"] == 0.9
    assert section["hidden_comm_s"] > 0.0
    assert 0.0 < section["overlap_ratio"] <= 0.9
    assert section["replacements"] == 0  # no threshold -> no re-placement
    assert section["migration_s"] == 0.0
    # Serial reports must not grow the section.
    serial = ServingEngine(
        MiLoBackend(), MODEL, EngineConfig(devices=4)
    ).run(poisson_workload(**WORKLOAD)).to_dict()
    assert "overlap" not in serial


def test_efficiency_zero_report_hides_nothing_and_is_slowest():
    hidden = make_engine(0.9).run(poisson_workload(**WORKLOAD)).to_dict()
    unhidden = make_engine(0.0).run(poisson_workload(**WORKLOAD)).to_dict()
    assert unhidden["overlap"]["hidden_comm_s"] == 0.0
    assert unhidden["overlap"]["overlap_ratio"] == 0.0
    assert hidden["sim_time_s"] <= unhidden["sim_time_s"]


REPLACE_WORKLOAD = dict(num_requests=120, qps=40.0, seed=32, mean_new_tokens=64)
REPLACE_CONFIG = dict(
    placement="frequency", kv_policy="ondemand", max_batch_size=1000
)


def test_replacement_triggers_and_stamps_epochs():
    engine = make_engine(0.9, replacement_threshold=0.05, **REPLACE_CONFIG)
    workload = poisson_workload(**REPLACE_WORKLOAD)
    report = engine.run(workload).to_dict()
    section = report["overlap"]
    assert section["replacements"] >= 1
    assert section["migration_s"] > 0.0
    # Requests admitted after the re-placement carry the bumped epoch.
    epochs = {
        r["placement_epoch"] for r in report["requests"] if r["state"] == "finished"
    }
    assert 0 in epochs and max(epochs) >= 1
    # Repeated runs on the same engine reset the layered placement and
    # report byte-identically (run-to-run determinism).
    again = engine.run(workload).to_dict()
    assert json.dumps(again, sort_keys=True) == json.dumps(report, sort_keys=True)


def test_scaled_layer_frequencies_replace_like_unscaled():
    # Re-placement compares the normalized routing rows, so scaling every
    # row (by a power of two, which normalizes exactly) must not change a
    # byte of the report.
    rows = fig3_layer_frequencies(32, 8)
    reports = [
        json.dumps(
            make_engine(
                layer_frequencies=tuple(tuple(float(f) * scale for f in row) for row in rows),
                replacement_threshold=0.9,
                **REPLACE_CONFIG,
            ).run(poisson_workload(**REPLACE_WORKLOAD)).to_dict(),
            sort_keys=True,
        )
        for scale in (1.0, 4.0)
    ]
    assert reports[0] == reports[1]


def test_replacement_is_one_decision_per_run(monkeypatch):
    calls = []
    repack = CostModel.repack

    def counting_repack(self, measured, threshold):
        calls.append(threshold)
        return repack(self, measured, threshold)

    monkeypatch.setattr(CostModel, "repack", counting_repack)
    engine = make_engine(0.9, replacement_threshold=0.05, **REPLACE_CONFIG)
    workload = poisson_workload(**REPLACE_WORKLOAD)
    report = json.dumps(engine.run(workload).to_dict(), sort_keys=True)
    assert calls == [0.05]
    again = json.dumps(engine.run(workload).to_dict(), sort_keys=True)
    assert calls == [0.05, 0.05]
    assert again == report
    # Two requests never make DRIFT_WINDOW distinct batch compositions.
    calls.clear()
    short = poisson_workload(num_requests=2, qps=40.0, seed=32, mean_new_tokens=8)
    assert engine.run(short).overlap["replacements"] == 0
    assert calls == []


def test_overlap_without_replacement_has_no_epoch_drift():
    report = make_engine(0.9).run(poisson_workload(**WORKLOAD)).to_dict()
    assert all(
        r["placement_epoch"] == 0
        for r in report["requests"]
        if r["state"] == "finished"
    )


# -- config validation ---------------------------------------------------------
def test_overlap_requires_multiple_devices():
    with pytest.raises(ValueError, match="devices > 1"):
        EngineConfig(overlap=True)


def test_layer_frequencies_require_overlap():
    rows = tuple(tuple(r) for r in fig3_layer_frequencies(32, 8))
    with pytest.raises(ValueError, match="requires overlap"):
        EngineConfig(devices=4, layer_frequencies=rows)


def test_replacement_threshold_validation():
    with pytest.raises(ValueError, match="requires overlap"):
        EngineConfig(devices=4, replacement_threshold=0.1)
    with pytest.raises(ValueError, match="total-variation"):
        EngineConfig(devices=4, overlap=True, replacement_threshold=1.5)


def test_layer_frequencies_row_count_must_match_model():
    rows = tuple(tuple(r) for r in fig3_layer_frequencies(4, 8))
    with pytest.raises(ValueError, match="rows"):
        make_engine(0.9, layer_frequencies=rows)

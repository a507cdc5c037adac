"""Report equivalence of the engine loop against the reference loop.

The engine does boundary work only at events and prices each loop turn
once, advancing the whole pure-decode stretch up to the next event at that
price; the reference engine (``engine_reference``) walks every running
sequence on every iteration, calls ``admit`` and ``ensure_capacity`` at
every boundary and prices every iteration.  Three things must never change the simulated result, only
how fast it is computed:

* the event-driven loop itself (engine vs reference, across the workload ×
  config grid below and under custom scheduling policies);
* ``debug_checks`` — per-run invariant auditing (KV-leak assertion,
  decode-event and skipped-admission audits) on/off;
* the memoized per-device iteration-cost cache (exercised implicitly by
  running the same engine twice).

Every comparison here is *byte-level* on the serialized JSON report: same
floats, same ordering, same preemption counts.  The committed goldens pin
the absolute behavior; these tests pin the equivalence on richer workload
mixes than the goldens cover.
"""

import json

import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import (
    EngineConfig,
    MetricsRegistry,
    MissedAdmission,
    Request,
    SchedulingPolicy,
    ServingEngine,
    Tracer,
    poisson_workload,
)
from repro.serving.cost import CostModel
from repro.serving.scheduler import DecodeTracker

from engine_reference import ReferenceEngine
from test_accounting import AdmitNothingPolicy
from test_decode_events import FewestTokensVictim

WORKLOADS = {
    # Steady decode at moderate load: long compressible stretches.
    "decode_heavy": dict(num_requests=80, qps=4.0, seed=21, mean_new_tokens=96),
    # Bursty arrivals: admission churn, queueing, small spans.
    "bursty": dict(num_requests=120, qps=60.0, seed=22, mean_new_tokens=32),
    # Shared prefixes under reservation: prefix cache between stretches.
    "prefix_shared": dict(
        num_requests=60, qps=30.0, seed=23, mean_new_tokens=48,
        shared_prefix_tokens=32, prefix_groups=3,
    ),
    # Single-token decodes: finish events collapse onto prefill iterations.
    "single_token": dict(
        num_requests=50, qps=20.0, seed=24, mean_new_tokens=1, length_jitter=0.0,
    ),
}

CONFIGS = {
    "reserve_1dev": dict(),
    "reserve_4dev": dict(devices=4),
    "reserve_reject": dict(admission="reject", max_batch_size=8),
    "reserve_chunked": dict(prefill_chunk=32),
    # Overlap-aware layered cost model: the cost memo a re-placement
    # clears, per-layer placements, the re-placement decision interleaved
    # with stretches.
    "overlap_4dev": dict(devices=4, overlap=True),
    "overlap_replace": dict(devices=2, overlap=True, replacement_threshold=0.05),
    # Swap preemption under reservation: reserve never preempts, so the
    # swap machinery must stay fully dormant.
    "swap_reserve_2dev": dict(devices=2, preempt_mode="swap"),
}


def run_report(workload_kwargs, config_kwargs, engine_cls=ServingEngine, **overrides) -> str:
    config = EngineConfig(**{**config_kwargs, **overrides})
    engine = engine_cls(MiLoBackend(), "mixtral-8x7b", config)
    report = engine.run(poisson_workload(**workload_kwargs))
    return json.dumps(report.to_dict(), sort_keys=True)


def assert_matches_reference(workload_kwargs, config_kwargs, **overrides) -> str:
    report = run_report(workload_kwargs, config_kwargs, **overrides)
    reference = run_report(workload_kwargs, config_kwargs, ReferenceEngine, **overrides)
    assert report == reference
    return report


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_report_matches_reference(workload, config):
    assert_matches_reference(WORKLOADS[workload], CONFIGS[config])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_debug_checks_off_is_byte_identical(workload):
    """``debug_checks`` gates auditing only — never the simulated result."""
    checked = run_report(WORKLOADS[workload], {}, debug_checks=True)
    unchecked = run_report(WORKLOADS[workload], {}, debug_checks=False)
    assert checked == unchecked


def test_ondemand_matches_reference():
    """Growth workloads: capacity walks and block boundaries end stretches."""
    config = dict(kv_policy="ondemand", block_size=8, max_batch_size=1000)
    workload = dict(num_requests=40, qps=50.0, seed=25, mean_new_tokens=64)
    assert_matches_reference(workload, config)


def test_disagg_matches_reference():
    """Disaggregated runs: handoff stalls land between iterations, and every
    handoff re-opens admission on the prefill pool."""
    config = dict(
        devices=3, prefill_devices=1, decode_devices=2,
        kv_policy="ondemand", block_size=8, max_batch_size=1000,
    )
    workload = dict(num_requests=40, qps=50.0, seed=25, mean_new_tokens=64)
    assert_matches_reference(workload, config)


def test_swap_reserve_matches_reference():
    """``preempt_mode='swap'`` with reservation allocation never preempts, so
    the swap machinery stays dormant: the run matches the reference and the
    recompute-mode report except for the migration section."""
    workload = dict(num_requests=60, qps=30.0, seed=27, mean_new_tokens=48)
    swap = assert_matches_reference(workload, {"devices": 2}, preempt_mode="swap")
    recompute = json.loads(run_report(workload, {"devices": 2}))
    swapped = json.loads(swap)
    migration = swapped.pop("migration")
    assert migration["swaps"] == 0 and migration["swap_in_s"] == 0.0
    assert swapped == recompute


def test_disagg_swap_matches_reference():
    """Swap-mode disaggregation (the everything-on configuration)."""
    config = dict(
        devices=3, prefill_devices=1, decode_devices=2,
        kv_policy="ondemand", block_size=8, max_batch_size=1000,
        preempt_mode="swap",
    )
    workload = dict(num_requests=40, qps=60.0, seed=28, mean_new_tokens=64)
    assert_matches_reference(workload, config)


# ---------------------------------------------------------------------------
# custom scheduling policies and the skipped-admission audit
# ---------------------------------------------------------------------------


def run_with_policy(engine_cls, policy, config, requests):
    """Report and trace stream of a run whose scheduler uses ``policy``."""
    engine = engine_cls(MiLoBackend(), "mixtral-8x7b", config)
    make_scheduler = engine.make_scheduler

    def with_policy():
        scheduler = make_scheduler()
        scheduler.policy = policy
        return scheduler

    engine.make_scheduler = with_policy
    tracer = Tracer()
    engine.enable_telemetry(tracer=tracer, metrics=MetricsRegistry(interval=0.1))
    report = engine.run(requests)
    return json.dumps(report.to_dict(), sort_keys=True), tracer.to_jsonl()


#: On-demand growth under KV pressure: preemptions pick victims.
PRESSURE_CONFIG = dict(kv_policy="ondemand", reserve_gb=20.0, max_batch_size=256)
PRESSURE_WORKLOAD = dict(
    num_requests=80, qps=40.0, seed=25, mean_prompt_tokens=512, mean_new_tokens=256,
)


@pytest.mark.parametrize("policy_cls", [AdmitNothingPolicy, FewestTokensVictim])
def test_custom_policy_matches_reference(policy_cls):
    config = EngineConfig(**PRESSURE_CONFIG)
    requests = poisson_workload(**PRESSURE_WORKLOAD)
    policy = policy_cls()
    engine = run_with_policy(ServingEngine, policy, config, requests)
    reference = run_with_policy(ReferenceEngine, policy_cls(), config, requests)
    assert engine == reference
    report = json.loads(engine[0])
    if policy_cls is AdmitNothingPolicy:
        assert report["stranded"] == len(requests)
    else:
        assert report["preemptions"] and policy.choices


class ParityJoin(SchedulingPolicy):
    """Breaks the ``may_join`` contract: it answers by call-count parity."""

    name = "parity-join"

    def __init__(self) -> None:
        self.calls = 0

    def may_join(self, running, config):
        self.calls += 1
        return self.calls % 2 == 0 and super().may_join(running, config)


def test_skipped_admission_audit_catches_impure_may_join():
    """The engine retries a failed admission only after an event; a policy
    whose answer changes without one is caught by ``debug_checks``."""
    requests = [Request(0, 0.0, 8, 4), Request(1, 0.0, 8, 4), Request(2, 100.0, 8, 4)]
    with pytest.raises(MissedAdmission, match="admitted request 1"):
        run_with_policy(ServingEngine, ParityJoin(), EngineConfig(), requests)


@pytest.mark.parametrize(
    "config, traced_warmup",
    [
        (dict(), False),
        (dict(devices=4), False),
        (dict(devices=4, overlap=True, replacement_threshold=0.02), False),
        (dict(devices=4, prefill_devices=1, decode_devices=3, kv_policy="ondemand"), False),
        (dict(devices=4, overlap=True, replacement_threshold=0.02), True),
    ],
    ids=["1dev", "4dev", "overlap_replace_4dev", "disagg_1to3_ondemand", "traced_warmup"],
)
def test_cost_cache_reuse_across_runs_is_byte_identical(config, traced_warmup):
    """One engine serving the same workload twice (warm latency/cost memo)
    reports byte-identically to a cold engine — also when the warm-up run
    was traced, since trace events read the same cost memo the report does."""
    workload = poisson_workload(num_requests=60, qps=10.0, seed=26)
    warm_engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", EngineConfig(**config))
    if traced_warmup:
        warm_engine.enable_telemetry(tracer=Tracer(), metrics=MetricsRegistry(interval=0.1))
    warmup = warm_engine.run(workload)  # populate the memo
    warm_engine.enable_telemetry()  # the measured run is untraced
    warm = json.dumps(warm_engine.run(workload).to_dict(), sort_keys=True)
    cold_engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", EngineConfig(**config))
    cold = json.dumps(cold_engine.run(workload).to_dict(), sort_keys=True)
    assert warm == cold
    if config.get("replacement_threshold"):
        assert warmup.overlap["replacements"]  # the memo spanned several epochs


# ---------------------------------------------------------------------------
# one pricing per loop turn
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [dict(), dict(devices=4, overlap=True, replacement_threshold=0.02)],
    ids=["colocated_reserve", "overlap_replace_4dev"],
)
def test_one_pricing_per_loop_turn(config, monkeypatch):
    """Every loop turn loads the batch once and prices it once; the stretch
    of iterations it advances reuses that price instead of re-pricing."""
    calls = {"cost": 0, "load": 0}
    cost, load = CostModel.cost, DecodeTracker.load

    def counted_cost(self, *args):
        calls["cost"] += 1
        return cost(self, *args)

    def counted_load(self, *args):
        calls["load"] += 1
        return load(self, *args)

    monkeypatch.setattr(CostModel, "cost", counted_cost)
    monkeypatch.setattr(DecodeTracker, "load", counted_load)
    engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", EngineConfig(**config))
    report = engine.run(poisson_workload(**WORKLOADS["decode_heavy"]))
    assert calls["cost"] == calls["load"]
    assert report.iterations > 2 * calls["load"]  # stretches span many iterations
    if config:
        assert report.overlap["replacements"]  # stalls and re-pricing happened


#: On-demand runs whose stretches cross many KV block boundaries: a
#: disaggregated 1:3 split, and four overlap devices with swap preemption
#: under KV pressure (grants declined inside a stretch, then walked).
BOUNDARY_RUNS = {
    "disagg_1to3": (
        dict(num_requests=60, qps=5.0, seed=7, mean_prompt_tokens=1024, mean_new_tokens=512),
        dict(
            devices=4, prefill_devices=1, decode_devices=3, kv_policy="ondemand",
            reserve_gb=17.0, max_batch_size=256,
        ),
    ),
    "overlap_swap_4dev": (
        dict(
            num_requests=80, qps=20.0, seed=7, mean_prompt_tokens=128,
            mean_new_tokens=512, shared_prefix_tokens=512, prefix_groups=8,
        ),
        dict(
            devices=4, placement="frequency", overlap=True, replacement_threshold=0.1,
            kv_policy="ondemand", preempt_mode="swap", reserve_gb=34.5,
            max_batch_size=512,
        ),
    ),
}


@pytest.mark.parametrize(
    "run, turns, iterations",
    [("disagg_1to3", 123, 875), ("overlap_swap_4dev", 420, 8040)],
)
def test_block_boundaries_do_not_end_loop_turns(run, turns, iterations, monkeypatch):
    """A KV block boundary is granted inside the stretch that reaches it, so
    the loop turns (one ``CostModel.cost`` call each) are set by prefills,
    finishes, arrivals, re-placements and declined grants alone.  Ending a
    turn at every boundary took 685 and 2495 turns on these runs."""
    calls = [0]
    cost = CostModel.cost

    def counted_cost(self, *args):
        calls[0] += 1
        return cost(self, *args)

    monkeypatch.setattr(CostModel, "cost", counted_cost)
    workload, config = BOUNDARY_RUNS[run]
    report = json.loads(run_report(workload, config))
    assert (calls[0], report["iterations"]) == (turns, iterations)
    if "preempt_mode" in config:
        assert report["migration"]["swaps"]  # KV pressure: some grants declined
    monkeypatch.undo()
    assert json.dumps(report, sort_keys=True) == run_report(workload, config, ReferenceEngine)


def test_drift_observation_that_moves_nothing_keeps_the_stretch(monkeypatch):
    """Observing a new batch composition cuts the stretch only when it
    re-places experts: a threshold that never fires prices the run as often
    as no drift tracking at all, and reports the same bytes."""
    calls = [0]
    cost = CostModel.cost

    def counted_cost(self, *args):
        calls[0] += 1
        return cost(self, *args)

    monkeypatch.setattr(CostModel, "cost", counted_cost)
    counts, reports = [], []
    for threshold in (None, 0.999999):
        calls[0] = 0
        reports.append(
            run_report(
                WORKLOADS["decode_heavy"], dict(devices=4, overlap=True),
                replacement_threshold=threshold,
            )
        )
        counts.append(calls[0])
    assert json.loads(reports[1])["overlap"]["replacements"] == 0
    assert reports[0] == reports[1]
    assert counts[0] == counts[1]

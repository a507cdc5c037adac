"""Golden equivalence: ``devices=1`` reproduces the pre-sharding engine.

The multi-GPU refactor (PR 5) reroutes every serving run through the cluster
iteration-cost path and the placement-aware scheduler.  These tests pin the
refactor down: the committed goldens under ``tests/serving/goldens/`` were
generated by the *pre-sharding* engine (PR 3 HEAD) on the PR 2/PR 3
deterministic workloads, and a single-device engine must keep producing
byte-identical JSON reports — same floats, same completion order, same
preemption counts.  In particular ``reserve`` on non-prefix workloads stays
bit-for-bit seed-compatible all the way back to PR 1.

Regenerate (only when a PR *intentionally* changes single-device behavior)::

    PYTHONPATH=src python tests/serving/test_golden_equivalence.py --regen
"""

import json
import pathlib

import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import EngineConfig, ServingEngine, poisson_workload, replay_workload

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

# The PR 1 overlapping-request trace (tests/serving/test_engine.py).
PR1_TRACE = [(0.0, 32, 4), (0.01, 16, 8), (0.02, 16, 2)]


def _workloads():
    """The PR 2 / PR 3 deterministic workloads, built fresh per call."""
    return {
        # PR 1/2: reserve on a plain replay trace, default engine sizing.
        "pr1_reserve_trace": (
            dict(kv_policy="reserve"),
            None,
            replay_workload(PR1_TRACE),
        ),
        # PR 2: both policies on the seeded Poisson workload that the policy
        # determinism tests replay (preemptions exercised under ondemand).
        "pr2_reserve_poisson": (
            dict(block_size=8, kv_policy="reserve", max_batch_size=1000),
            60,
            poisson_workload(30, qps=50.0, seed=4, mean_new_tokens=96),
        ),
        "pr2_ondemand_poisson": (
            dict(block_size=8, kv_policy="ondemand", max_batch_size=1000),
            60,
            poisson_workload(30, qps=50.0, seed=4, mean_new_tokens=96),
        ),
        # PR 2: chunked prefill under memory pressure (preempt + recompute).
        "pr2_ondemand_chunked": (
            dict(block_size=8, kv_policy="ondemand", max_batch_size=1000, prefill_chunk=32),
            60,
            poisson_workload(30, qps=100.0, seed=5, mean_prompt_tokens=48, mean_new_tokens=128),
        ),
        # PR 3: shared-prefix traffic under both policies (prefix cache, CoW).
        "pr3_reserve_prefix": (
            dict(block_size=8, kv_policy="reserve", max_batch_size=1000),
            80,
            poisson_workload(
                25, qps=50.0, seed=7, mean_new_tokens=48,
                shared_prefix_tokens=48, prefix_groups=2,
            ),
        ),
        "pr3_ondemand_prefix": (
            dict(block_size=8, kv_policy="ondemand", max_batch_size=1000),
            80,
            poisson_workload(
                25, qps=50.0, seed=7, mean_new_tokens=48,
                shared_prefix_tokens=48, prefix_groups=2,
            ),
        ),
    }


def _cluster_workloads():
    """Multi-device (devices=4) cases pinning the PR 6 engine vectorization.

    Generated by the *pre-vectorization* engine (PR 6 accounting fixes
    applied, hot loop untouched); the vectorized engine core must keep the
    reports byte-identical — same per-device float accumulation order, same
    straggler/all-to-all sums, same completion order.
    """
    return {
        # Reserve allocation + balanced placement: long macro-stepped
        # pure-decode stretches.
        "pr6_devices4_reserve": (
            dict(devices=4, kv_policy="reserve"),
            None,
            poisson_workload(40, qps=20.0, seed=11, mean_new_tokens=64),
        ),
        # On-demand allocation + frequency placement under memory pressure
        # (40-block per-device pools force preempt/recompute): capacity
        # walks and block boundaries end most stretches.
        "pr6_devices4_frequency_ondemand": (
            dict(devices=4, kv_policy="ondemand", placement="frequency",
                 block_size=8, max_batch_size=1000),
            40,
            poisson_workload(40, qps=40.0, seed=12, mean_new_tokens=96),
        ),
    }


def _pr10_head_workloads():
    """Disaggregation-off cases pinning the PR 10 engine refactor.

    Generated by the *pre-disaggregation* engine (PR 9 HEAD).  PR 10 threads
    pool partitioning, KV handoff and swap-aware preemption through the
    engine, scheduler, cluster and allocators; with ``--disagg`` off (the
    default) every one of those paths must be dormant and the reports must
    stay byte-identical — same floats, same completion order, same
    preemption counts.
    """
    return {
        # Reserve + chunked prefill on 4 devices: macro-steps plus the
        # prefill-completion walk the handoff hook lands in.
        "pr10_head_reserve_4dev_chunked": (
            dict(devices=4, kv_policy="reserve", prefill_chunk=32),
            None,
            poisson_workload(40, qps=25.0, seed=41, mean_prompt_tokens=96,
                             mean_new_tokens=64),
        ),
        # On-demand under pressure on 2 devices: the preemption path the
        # swap mode forks from (recompute must stay the untouched default).
        "pr10_head_ondemand_2dev": (
            dict(devices=2, kv_policy="ondemand", block_size=8,
                 max_batch_size=1000),
            40,
            poisson_workload(35, qps=60.0, seed=42, mean_new_tokens=96),
        ),
        # Overlap cost model: disaggregation is mutually exclusive with it,
        # and its epoch/memo machinery must not shift.
        "pr10_head_overlap_4dev": (
            dict(devices=4, overlap=True),
            None,
            poisson_workload(40, qps=30.0, seed=43, mean_new_tokens=48),
        ),
    }


def _pr10_disagg_workloads():
    """Disaggregated-serving cases pinning the PR 10 migration machinery.

    Generated by the PR 10 engine itself — these are *behavior* goldens, not
    equivalence goldens: they freeze the handoff/rebalance/swap float
    accounting so later PRs cannot drift the migration section silently.
    """
    return {
        # 1 prefill + 2 decode devices, on-demand growth under pressure:
        # handoffs, decode-pool rebalances and recompute preemptions.
        "pr10_disagg_1p2d_ondemand": (
            dict(devices=3, prefill_devices=1, decode_devices=2,
                 kv_policy="ondemand", block_size=8, max_batch_size=1000),
            40,
            poisson_workload(35, qps=60.0, seed=44, mean_new_tokens=96),
        ),
        # Same partition with swap-to-host preemption: swap_out/swap_in
        # pricing and the recompute-equivalent comparison column.
        "pr10_disagg_1p2d_swap": (
            dict(devices=3, prefill_devices=1, decode_devices=2,
                 kv_policy="ondemand", block_size=8, max_batch_size=1000,
                 preempt_mode="swap"),
            40,
            poisson_workload(35, qps=60.0, seed=44, mean_new_tokens=96),
        ),
        # 2 prefill + 2 decode under reserve: handoffs between macro-stepped
        # decode stretches, without preemption noise.
        "pr10_disagg_2p2d_reserve": (
            dict(devices=4, prefill_devices=2, decode_devices=2,
                 kv_policy="reserve", prefill_chunk=32),
            None,
            poisson_workload(40, qps=25.0, seed=45, mean_prompt_tokens=96,
                             mean_new_tokens=64),
        ),
        # Colocated swap mode (no disagg): the migration section reports
        # swaps only.
        "pr10_colocated_swap_ondemand": (
            dict(devices=2, kv_policy="ondemand", block_size=8,
                 max_batch_size=1000, preempt_mode="swap"),
            40,
            poisson_workload(35, qps=60.0, seed=42, mean_new_tokens=96),
        ),
    }


def _run_case(config_kwargs, num_blocks, workload, extra_config=None):
    kwargs = dict(config_kwargs)
    if extra_config:
        kwargs.update(extra_config)
    engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", EngineConfig(**kwargs))
    if num_blocks is not None:
        pools = getattr(engine.block_manager, "pools", None)
        if pools is not None:
            for pool in pools:  # sharded: resize every per-device pool
                pool.num_blocks = num_blocks
        else:
            engine.block_manager.num_blocks = num_blocks
    return engine.run(workload).to_dict()


def _serialize(report_dict) -> str:
    return json.dumps(report_dict, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("case", sorted(_workloads()))
@pytest.mark.parametrize("explicit_devices", [None, 1], ids=["default", "devices1"])
def test_single_device_report_matches_pre_sharding_golden(case, explicit_devices):
    """``--devices 1`` replay is byte-identical to the pre-sharding engine."""
    golden_path = GOLDEN_DIR / f"{case}.json"
    assert golden_path.exists(), (
        f"missing golden {golden_path}; regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    config_kwargs, num_blocks, workload = _workloads()[case]
    extra = {} if explicit_devices is None else {"devices": explicit_devices}
    try:
        report = _run_case(config_kwargs, num_blocks, workload, extra)
    except TypeError:
        if explicit_devices is not None:
            pytest.skip("EngineConfig has no 'devices' knob yet (pre-refactor)")
        raise
    assert _serialize(report) == golden_path.read_text()


@pytest.mark.parametrize("case", sorted(_cluster_workloads()))
def test_multi_device_report_matches_pre_vectorization_golden(case):
    """``--devices 4`` replay is byte-identical to the pre-vectorization engine."""
    golden_path = GOLDEN_DIR / f"{case}.json"
    assert golden_path.exists(), (
        f"missing golden {golden_path}; regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    config_kwargs, num_blocks, workload = _cluster_workloads()[case]
    report = _run_case(config_kwargs, num_blocks, workload)
    assert _serialize(report) == golden_path.read_text()


@pytest.mark.parametrize("case", sorted(_pr10_head_workloads()))
def test_disagg_off_report_matches_pre_disaggregation_golden(case):
    """The default (colocated) engine is byte-identical to the PR 9 engine."""
    golden_path = GOLDEN_DIR / f"{case}.json"
    assert golden_path.exists(), (
        f"missing golden {golden_path}; regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    config_kwargs, num_blocks, workload = _pr10_head_workloads()[case]
    report = _run_case(config_kwargs, num_blocks, workload)
    assert _serialize(report) == golden_path.read_text()


@pytest.mark.parametrize("case", sorted(_pr10_disagg_workloads()))
def test_disagg_report_matches_golden(case):
    """Disaggregated/swap runs replay byte-identically against their goldens."""
    golden_path = GOLDEN_DIR / f"{case}.json"
    assert golden_path.exists(), (
        f"missing golden {golden_path}; regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    config_kwargs, num_blocks, workload = _pr10_disagg_workloads()[case]
    report = _run_case(config_kwargs, num_blocks, workload)
    assert _serialize(report) == golden_path.read_text()


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    cases = {
        **_workloads(),
        **_cluster_workloads(),
        **_pr10_head_workloads(),
        **_pr10_disagg_workloads(),
    }
    for case, (config_kwargs, num_blocks, workload) in sorted(cases.items()):
        path = GOLDEN_DIR / f"{case}.json"
        path.write_text(_serialize(_run_case(config_kwargs, num_blocks, workload)))
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the committed goldens")
    regenerate()

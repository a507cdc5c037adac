"""``CostModel`` against the per-mode cost functions it replaced.

Seeded draws over every cluster layout — one device, 2-4 colocated devices,
the layered overlap model at 2, 4, 8 and 9 devices (9 leaves one device
without experts) before and after a forced ``repack_drifted``, and
disaggregated 1:2 / 1:3 pools — price random ``(tokens, home split)`` pairs,
including splits that leave devices (or a whole pool) without load.  Every
:class:`~repro.serving.cost.IterationCost` field must equal the reference
tuple of ``cost_reference`` exactly, and ``per_device`` must equal the
reference telemetry split.  After the re-placement, ``reset()`` must price
the pairs as a fresh engine does.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.kernels.device import A100_80GB
from repro.runtime.backends import MiLoBackend
from repro.serving import EngineConfig, ServingEngine

from cost_reference import ReferenceCosts

LAYOUTS = (
    dict(devices=1),
    dict(devices=2),
    dict(devices=3, placement="frequency"),
    dict(devices=4),
    dict(devices=2, overlap=True),
    dict(devices=4, overlap=True, placement="frequency"),
    # 8+ devices: sums over a layer's devices must stay sequential.
    dict(devices=8, overlap=True, placement="frequency"),
    dict(devices=9, overlap=True, placement="frequency"),
    dict(devices=3, prefill_devices=1, decode_devices=2),
    dict(devices=4, prefill_devices=1, decode_devices=3),
)
FAST_SEEDS = range(2 * len(LAYOUTS))
SLOW_SEEDS = range(2 * len(LAYOUTS), 2 * len(LAYOUTS) + 200)
PAIRS_PER_DRAW = 24


class ReferencePricedEngine(ReferenceCosts, ServingEngine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.setup_reference_costs()


def home_split(rng, tokens, devices, pools):
    """Token rows per home device: a random subset of devices (sometimes
    one pool only) shares the batch, the rest get none."""
    home = np.zeros(devices, dtype=np.int64)
    candidates = np.arange(devices)
    if pools is not None and rng.random() < 0.3:
        prefill, _ = pools
        candidates = candidates[:prefill] if rng.random() < 0.5 else candidates[prefill:]
    loaded = rng.choice(candidates, size=rng.integers(1, len(candidates) + 1), replace=False)
    home[loaded] = rng.multinomial(tokens, np.full(len(loaded), 1.0 / len(loaded)))
    return tuple(int(h) for h in home)


def draw_tokens(rng):
    # Small batches leave low-mass devices without load after the split.
    return int(rng.integers(1, 9) if rng.random() < 0.4 else rng.integers(1, 4097))


def assert_matches_reference(engine, tokens, home_key):
    config = engine.config
    cost = engine.cost_model.cost(tokens, None if config.devices == 1 else home_key)
    if config.overlap:
        old = engine._iteration_cost_overlap(tokens, home_key)
    elif config.prefill_devices:
        old = engine._iteration_cost_disagg(tokens, home_key)
    else:
        old = engine._iteration_cost(tokens, home_key)
        if config.devices == 1:
            # One device prices no dispatch: the memo-less scalar form.
            assert (cost.step, cost.max_compute, cost.mean_compute) == tuple(
                engine._iteration_cost(tokens, None)[:3]
            )
    fields = (cost.step, cost.max_compute, cost.mean_compute, cost.remote_tokens)
    assert fields == tuple(old[:4])
    assert (cost.hidden, cost.comm) == (tuple(old[4:]) if config.overlap else (None, None))
    assert cost.per_device == engine._telemetry_per_device(tokens, home_key)


def check_draw(seed):
    rng = np.random.default_rng(seed)
    layout = LAYOUTS[seed % len(LAYOUTS)]
    device = dataclasses.replace(A100_80GB, overlap_efficiency=float(rng.random()))
    engine = ReferencePricedEngine(
        MiLoBackend(device=device), "mixtral-8x7b", EngineConfig(**layout)
    )
    devices = layout["devices"]
    pools = None
    if "prefill_devices" in layout:
        pools = (layout["prefill_devices"], layout["decode_devices"])
    pairs = []
    for _ in range(PAIRS_PER_DRAW):
        tokens = draw_tokens(rng)
        pairs.append((tokens, home_split(rng, tokens, devices, pools)))
        assert_matches_reference(engine, *pairs[-1])
    if layout.get("overlap"):
        # Force a re-placement: pack every layer for a fresh random routing
        # profile, which opens a new placement epoch; the pairs priced
        # before must not be served from the old epoch's memo entries.
        spec = engine.spec
        measured = rng.random((spec.num_layers, spec.num_experts)) ** 4 + 1e-3
        measured /= measured.sum(axis=1, keepdims=True)
        assert engine.cost_model.repack(measured.tolist(), 0.01)
        assert engine.cost_model.epoch == 1
        for tokens, home_key in pairs:
            assert_matches_reference(engine, tokens, home_key)
        # Undoing the re-placement restores the pristine layers: prices
        # must equal a fresh engine's, not the re-packed layers'.
        engine.cost_model.reset()
        fresh = ServingEngine(MiLoBackend(device=device), "mixtral-8x7b", EngineConfig(**layout))
        for tokens, home_key in pairs:
            assert engine.cost_model.cost(tokens, home_key) == fresh.cost_model.cost(
                tokens, home_key
            )


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_cost_model_matches_reference(seed):
    check_draw(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_cost_model_matches_reference_sweep(seed):
    check_draw(seed)

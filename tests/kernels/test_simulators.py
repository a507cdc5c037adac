"""Tests for the A100 kernel performance model and backend simulators."""

import numpy as np
import pytest

from repro.kernels.device import A100_40GB
from repro.kernels.simulators import (
    DequantCutlassSim,
    FP16KernelSim,
    GemmShape,
    GPTQ3bitKernelSim,
    KernelSimulator,
    MarlinKernelSim,
    MiLoKernelSim,
    UnsupportedBatchError,
    default_backends,
)
from repro.models import REFERENCE_FFN_SHAPES

MIXTRAL = REFERENCE_FFN_SHAPES["mixtral-8x7b"]
DEEPSEEK = REFERENCE_FFN_SHAPES["deepseek-moe"]


class TestGemmShape:
    def test_flops(self):
        assert GemmShape(2, 3, 4).flops == 2 * 2 * 3 * 4

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            GemmShape(0, 4, 4)


class TestDeviceModel:
    def test_tensor_core_efficiency_increases_with_batch(self):
        effs = [A100_40GB.tensor_core_efficiency(b) for b in (1, 8, 16, 64, 256)]
        assert all(b >= a for a, b in zip(effs, effs[1:]))
        assert effs[-1] <= 1.0

    def test_memory_capacity(self):
        assert A100_40GB.memory_gb == 40.0

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            A100_40GB.tensor_core_efficiency(0)


class TestCostDecomposition:
    def test_breakdown_sums_to_total_when_not_overlapped(self):
        sim = MiLoKernelSim(async_load=False)
        cost = sim.gemm_cost(GemmShape(16, 4096, 14336))
        expected = (
            cost.memory_time + cost.compute_time + cost.dequant_time
            + cost.sync_time + cost.overhead_time
        )
        assert cost.total == pytest.approx(expected)

    def test_overlap_takes_max_of_pipelines(self):
        sim = MiLoKernelSim(async_load=True)
        cost = sim.gemm_cost(GemmShape(16, 4096, 14336))
        assert cost.total == pytest.approx(
            max(cost.memory_time, cost.compute_time + cost.dequant_time)
            + cost.sync_time + cost.overhead_time
        )

    def test_weight_bytes_scale_with_bits(self):
        shape = GemmShape(16, 4096, 4096)
        b3 = MiLoKernelSim().weight_bytes(shape)
        b4 = MarlinKernelSim().weight_bytes(shape)
        b16 = FP16KernelSim().weight_bytes(shape)
        assert b3 < b4 < b16
        assert b16 == 4096 * 4096 * 2

    def test_tflops_positive_and_bounded_by_peak(self):
        for sim in default_backends().values():
            if isinstance(sim, GPTQ3bitKernelSim):
                continue
            cost = sim.gemm_cost(GemmShape(32, 4096, 14336))
            assert 0 < cost.tflops < A100_40GB.tensor_core_flops / 1e12


class TestBackendBehaviours:
    def test_gptq3bit_rejects_batched_inference(self):
        sim = GPTQ3bitKernelSim()
        assert sim.supports_batch(1)
        assert not sim.supports_batch(16)
        with pytest.raises(UnsupportedBatchError):
            sim.gemm_cost(GemmShape(16, 4096, 14336))

    def test_batch1_is_memory_bound_and_3bit_wins(self):
        """At batch 1 the 3-bit backends beat the 4-bit MARLIN (paper Fig. 9 / Table 7)."""
        milo = MiLoKernelSim(symmetric=True).mlp_latency(MIXTRAL, 1)
        gptq = GPTQ3bitKernelSim().mlp_latency(MIXTRAL, 1)
        marlin = MarlinKernelSim().mlp_latency(MIXTRAL, 1)
        assert milo < marlin
        assert gptq < marlin
        assert abs(milo - gptq) / gptq < 0.25  # "similar behaviour at batch 1"
        assert 1.1 < marlin / milo < 1.45      # paper reports ~1.2x

    @pytest.mark.parametrize("model", ["deepseek-moe", "arctic-moe", "mixtral-8x7b", "falcon-180b"])
    def test_milo_beats_marlin_at_batch_16(self, model):
        shapes = REFERENCE_FFN_SHAPES[model]
        milo = MiLoKernelSim(symmetric=True).mlp_tflops(shapes, 16)
        marlin = MarlinKernelSim().mlp_tflops(shapes, 16)
        assert milo > marlin
        assert milo / marlin < 1.6  # a modest edge, not an order of magnitude

    def test_milo_not_worse_than_marlin_at_batch_32(self):
        milo = MiLoKernelSim(symmetric=True).mlp_tflops(DEEPSEEK, 32)
        marlin = MarlinKernelSim().mlp_tflops(DEEPSEEK, 32)
        assert milo > marlin

    def test_unfused_dequant_cutlass_is_much_slower(self):
        fused = MiLoKernelSim(symmetric=True).mlp_latency(MIXTRAL, 16)
        unfused = DequantCutlassSim().mlp_latency(MIXTRAL, 16)
        assert unfused > 2 * fused

    def test_throughput_grows_with_batch(self):
        sim = MiLoKernelSim(symmetric=True)
        t1 = sim.mlp_tflops(MIXTRAL, 1)
        t16 = sim.mlp_tflops(MIXTRAL, 16)
        t32 = sim.mlp_tflops(MIXTRAL, 32)
        assert t1 < t16 < t32

    def test_marlin_asymmetric_handling_costs_extra(self):
        plain = MarlinKernelSim(handle_asymmetric_model=False).mlp_latency(MIXTRAL, 16)
        with_zero_points = MarlinKernelSim(handle_asymmetric_model=True).mlp_latency(MIXTRAL, 16)
        assert with_zero_points > plain

    def test_default_backend_lineup(self):
        backends = default_backends()
        assert set(backends) == {
            "MiLo Dequant + CUTLASS",
            "GPTQ3bit Kernel",
            "MARLIN Kernel",
            "MiLo Kernel (sym)",
            "MiLo Kernel (asym)",
        }


class TestAblationSwitches:
    """The Fig. 10 ablation: each optimization must cost something when removed."""

    @pytest.mark.parametrize("model", ["deepseek-moe", "mixtral-8x7b", "falcon-180b"])
    def test_async_load_is_most_important(self, model):
        shapes = REFERENCE_FFN_SHAPES[model]
        base = MiLoKernelSim(symmetric=False).mlp_latency(shapes, 16)
        no_async = MiLoKernelSim(symmetric=False, async_load=False).mlp_latency(shapes, 16)
        no_dequant = MiLoKernelSim(symmetric=False, milo_dequant=False).mlp_latency(shapes, 16)
        no_tiles = MiLoKernelSim(symmetric=False, tile_tuning=False).mlp_latency(shapes, 16)
        assert no_async > base
        assert no_async >= no_dequant
        assert no_async >= no_tiles

    def test_dequant_matters_more_for_larger_mlps(self):
        def slowdown(shapes):
            base = MiLoKernelSim(symmetric=False).mlp_latency(shapes, 16)
            return MiLoKernelSim(symmetric=False, milo_dequant=False).mlp_latency(shapes, 16) / base

        assert slowdown(REFERENCE_FFN_SHAPES["falcon-180b"]) > slowdown(DEEPSEEK)

    def test_tile_tuning_matters_most_for_small_mlps(self):
        def slowdown(shapes):
            base = MiLoKernelSim(symmetric=False).mlp_latency(shapes, 16)
            return MiLoKernelSim(symmetric=False, tile_tuning=False).mlp_latency(shapes, 16) / base

        assert slowdown(DEEPSEEK) > slowdown(REFERENCE_FFN_SHAPES["falcon-180b"])
        assert slowdown(DEEPSEEK) > 1.05


#: Every simulator configuration a backend builds: the Fig. 9 line-up on
#: either checkpoint plus the Fig. 10 ablations.
SIMULATOR_FACTORIES = {
    **{
        f"{name}{', asymmetric model' if asym else ''}": (
            lambda name=name, asym=asym: default_backends(asym)[name]
        )
        for name in default_backends()
        for asym in (False, True)
    },
    "milo-no-async": lambda: MiLoKernelSim(symmetric=False, async_load=False),
    "milo-no-dequant": lambda: MiLoKernelSim(symmetric=False, milo_dequant=False),
    "milo-no-tiles": lambda: MiLoKernelSim(symmetric=False, tile_tuning=False),
    "fp16": FP16KernelSim,
}

#: Table 7 cells (seconds) of the modeled Mixtral-8x7B step, exactly as the
#: un-memoized simulators computed them.
TABLE7_CELLS = {
    ("GPTQ3bit Backend", 1): 0.008731252285682443,
    ("MARLIN Backend", 1): 0.011877830168614227,
    ("MARLIN Backend", 16): 0.031202310494863147,
    ("MARLIN Backend", 32): 0.031731942554833636,
    ("MiLo Backend", 1): 0.009612293389579352,
    ("MiLo Backend", 16): 0.02669366464735152,
    ("MiLo Backend", 32): 0.025350349138759665,
}


class TestTilingMemo:
    """The per-``(k, n)`` tiling memo never changes a cost."""

    @pytest.mark.parametrize("factory", SIMULATOR_FACTORIES.values(), ids=SIMULATOR_FACTORIES)
    def test_warm_instance_matches_fresh_instances(self, factory):
        weights = [
            (k, n) for shapes in REFERENCE_FFN_SHAPES.values() for k, n in shapes.values()
        ] + [(64, 144), (4096, 64), (11008, 2048), (1, 1)]
        warm = factory()
        for m in (1, 2, 7, 16, 32, 100, 512):
            for k, n in weights:
                shape = GemmShape(m, k, n)
                if not warm.supports_batch(m):
                    continue
                assert warm.gemm_cost(shape) == factory().gemm_cost(shape), shape
        assert len(warm._tiling_cache) == len(set(weights))

    def test_table7_cells_unchanged(self):
        from repro.models import FULL_MODEL_SPECS
        from repro.runtime import default_backend_lineup

        spec = FULL_MODEL_SPECS["mixtral-8x7b"]
        lineup = default_backend_lineup("mixtral-8x7b")
        for (name, batch), cell in TABLE7_CELLS.items():
            assert lineup[name].step_latency(spec, batch).total == cell

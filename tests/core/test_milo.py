"""Tests for the MiLo matrix-level iterative optimizer (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import MiLoConfig, MiLoMatrixOptimizer
from repro.models.init import heavy_tailed_weight, light_tailed_weight
from repro.quant import HQQConfig, HQQQuantizer


@pytest.fixture()
def heavy_weight():
    return heavy_tailed_weight((64, 128), rng=np.random.default_rng(0))


@pytest.fixture()
def light_weight():
    return light_tailed_weight((64, 128), rng=np.random.default_rng(1))


class TestAlgorithm:
    def test_reconstruction_better_than_plain_hqq(self, heavy_weight):
        milo = MiLoMatrixOptimizer(MiLoConfig(bits=3, group_size=64, compensator_bits=None))
        result = milo.optimize(heavy_weight, rank=8)
        hqq = HQQQuantizer(HQQConfig(bits=3, group_size=64)).quantize(heavy_weight).dequantize()
        err_milo = np.linalg.norm(heavy_weight - result.reconstructed())
        err_hqq = np.linalg.norm(heavy_weight - hqq)
        assert err_milo < err_hqq

    def test_error_history_decreases_overall(self, heavy_weight):
        result = MiLoMatrixOptimizer(MiLoConfig(bits=3)).optimize(heavy_weight, rank=8)
        history = result.error_history
        assert len(history) >= 2
        assert history[-1] <= history[0]
        # The first iteration (plain HQQ + first SVD) to the converged value
        # should show a monotone-ish trend: no value above the starting error.
        assert max(history) == pytest.approx(history[0], rel=1e-9)

    def test_higher_rank_lower_final_error(self, heavy_weight):
        optimizer = MiLoMatrixOptimizer(MiLoConfig(bits=3, compensator_bits=None))
        e_small = optimizer.optimize(heavy_weight, rank=2).final_error()
        e_large = optimizer.optimize(heavy_weight, rank=16).final_error()
        assert e_large < e_small

    def test_iterative_beats_single_iteration(self, heavy_weight):
        single = MiLoMatrixOptimizer(MiLoConfig(bits=3, max_iterations=1, compensator_bits=None))
        many = MiLoMatrixOptimizer(MiLoConfig(bits=3, max_iterations=20, compensator_bits=None))
        err_single = np.linalg.norm(heavy_weight - single.optimize(heavy_weight, rank=8).reconstructed())
        err_many = np.linalg.norm(heavy_weight - many.optimize(heavy_weight, rank=8).reconstructed())
        assert err_many <= err_single + 1e-12

    def test_respects_iteration_cap(self, heavy_weight):
        result = MiLoMatrixOptimizer(MiLoConfig(bits=3, max_iterations=5)).optimize(heavy_weight, 4)
        assert result.iterations <= 5

    def test_rank_zero_is_plain_quantization(self, heavy_weight):
        result = MiLoMatrixOptimizer(MiLoConfig(bits=3)).optimize(heavy_weight, rank=0)
        assert result.rank == 0
        assert result.compensator.rank == 0
        assert result.iterations == 1
        assert np.allclose(result.reconstructed(), result.dequantized_base())

    def test_stop_reason_recorded(self, heavy_weight):
        result = MiLoMatrixOptimizer(MiLoConfig(bits=3)).optimize(heavy_weight, rank=8)
        assert result.stop_reason in ("converged", "max-iterations", "diverged")

    def test_negative_rank_treated_as_zero(self, heavy_weight):
        result = MiLoMatrixOptimizer(MiLoConfig(bits=3)).optimize(heavy_weight, rank=-3)
        assert result.rank == 0

    def test_rejects_non_2d_weight(self):
        with pytest.raises(ValueError):
            MiLoMatrixOptimizer().optimize(np.ones(10), rank=1)

    def test_compensator_quantized_by_default(self, heavy_weight):
        result = MiLoMatrixOptimizer(MiLoConfig(bits=3, compensator_bits=3)).optimize(heavy_weight, 4)
        assert result.compensator.U_quantized is not None

    def test_compensator_kept_fp16_when_requested(self, heavy_weight):
        result = MiLoMatrixOptimizer(MiLoConfig(bits=3, compensator_bits=None)).optimize(heavy_weight, 4)
        assert result.compensator.U_quantized is None

    def test_heavy_tailed_benefits_more_than_light_tailed(self, heavy_weight, light_weight):
        """Compensation closes a larger share of the gap on heavy-tailed weights (paper Fig. 4)."""
        optimizer = MiLoMatrixOptimizer(MiLoConfig(bits=3, compensator_bits=None))

        def relative_gain(w):
            base = np.linalg.norm(
                w - HQQQuantizer(HQQConfig(bits=3, group_size=64)).quantize(w).dequantize()
            )
            milo = np.linalg.norm(w - optimizer.optimize(w, rank=8).reconstructed())
            return (base - milo) / base

        assert relative_gain(heavy_weight) > relative_gain(light_weight)


class TestConfigValidation:
    def test_invalid_max_iterations(self):
        with pytest.raises(ValueError):
            MiLoConfig(max_iterations=0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            MiLoConfig(window=0)

    def test_inner_hqq_inherits_bits(self):
        cfg = MiLoConfig(bits=4, group_size=32)
        assert cfg.hqq.bits == 4
        assert cfg.hqq.group_size == 32

    @pytest.mark.parametrize("bad", [{"bits": 9}, {"bits": 1}, {"group_size": 0}])
    def test_outer_settings_checked_by_the_inner_hqq_config(self, bad):
        with pytest.raises(ValueError, match="HQQConfig"):
            MiLoConfig(**bad)

    @pytest.mark.parametrize(
        "name, value",
        [("p_norm", 2.0), ("beta", 0.0), ("kappa", 0.0), ("iters", 0), ("early_stop_tol", -1.0)],
    )
    def test_inner_hqq_config_rechecked_when_rebuilt(self, name, value):
        hqq = HQQConfig()
        setattr(hqq, name, value)  # bypasses HQQConfig's own check
        with pytest.raises(ValueError, match=f"HQQConfig.{name}"):
            MiLoConfig(hqq=hqq)

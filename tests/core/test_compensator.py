"""Tests for low-rank compensators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compensator import (
    LowRankCompensator,
    compensator_memory_bytes,
    truncated_svd_factors,
)


class TestTruncatedSVD:
    def test_exact_recovery_of_low_rank_matrix(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 15))
        U, V = truncated_svd_factors(A, 3)
        assert np.allclose(U @ V, A, atol=1e-8)

    def test_factor_shapes(self):
        U, V = truncated_svd_factors(np.random.default_rng(1).normal(size=(10, 6)), 2)
        assert U.shape == (10, 2)
        assert V.shape == (2, 6)

    def test_rank_zero_returns_empty_factors(self):
        U, V = truncated_svd_factors(np.ones((4, 5)), 0)
        assert U.shape == (4, 0) and V.shape == (0, 5)

    def test_rank_clipped_to_max(self):
        U, V = truncated_svd_factors(np.ones((4, 5)), 100)
        assert U.shape[1] == 4

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            truncated_svd_factors(np.ones(5), 1)

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_higher_rank_never_worse(self, rank):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(16, 12))
        err_r = np.linalg.norm(A - np.prod(truncated_svd_factors(A, rank)[0].shape) * 0)
        U1, V1 = truncated_svd_factors(A, rank)
        U2, V2 = truncated_svd_factors(A, rank + 1)
        assert np.linalg.norm(A - U2 @ V2) <= np.linalg.norm(A - U1 @ V1) + 1e-9

    def test_eckart_young_optimality_vs_random_factors(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(20, 20))
        U, V = truncated_svd_factors(A, 4)
        svd_err = np.linalg.norm(A - U @ V)
        for _ in range(5):
            Ur = rng.normal(size=(20, 4))
            Vr = rng.normal(size=(4, 20))
            assert svd_err <= np.linalg.norm(A - Ur @ Vr) + 1e-9

    def test_sparse_path_matches_dense_path(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(300, 280))
        U_s, V_s = truncated_svd_factors(A, 4)      # triggers ARPACK path
        U_d, V_d = np.linalg.svd(A, full_matrices=False)[0][:, :4], None
        # Compare the reconstruction errors, not the factors (sign ambiguity).
        s = np.linalg.svd(A, compute_uv=False)
        expected = np.sqrt(np.sum(s[4:] ** 2))
        assert np.linalg.norm(A - U_s @ V_s) == pytest.approx(expected, rel=1e-6)

    def test_sparse_path_ignores_global_random_state(self):
        """ARPACK must not draw its start vector from numpy's global RNG:
        the factors are the same bytes whatever that RNG was seeded with."""
        A = np.random.default_rng(6).normal(size=(300, 520))
        saved = np.random.get_state()
        products = []
        try:
            for seed in (0, 1):
                np.random.seed(seed)
                U, V = truncated_svd_factors(A, 8)  # triggers ARPACK path
                products.append((U @ V).tobytes())
        finally:
            np.random.set_state(saved)
        assert products[0] == products[1]


class TestCompensatorMemory:
    def test_zero_rank_is_free(self):
        assert compensator_memory_bytes((100, 100), 0) == 0.0

    def test_memory_linear_in_rank(self):
        one = compensator_memory_bytes((128, 256), 1, bits=3, group_size=64)
        four = compensator_memory_bytes((128, 256), 4, bits=3, group_size=64)
        assert four == pytest.approx(4 * one, rel=0.05)

    def test_int3_cheaper_than_int8(self):
        m3 = compensator_memory_bytes((256, 256), 16, bits=3)
        m8 = compensator_memory_bytes((256, 256), 16, bits=8)
        assert 0.3 < m3 / m8 < 0.45


class TestLowRankCompensator:
    @pytest.fixture()
    def residual(self):
        rng = np.random.default_rng(6)
        return rng.normal(size=(24, 3)) @ rng.normal(size=(3, 18)) + 0.01 * rng.normal(size=(24, 18))

    def test_from_residual_correction_close(self, residual):
        comp = LowRankCompensator.from_residual(residual, rank=3)
        rel = np.linalg.norm(residual - comp.correction()) / np.linalg.norm(residual)
        assert rel < 0.1

    def test_quantized_correction_close_to_float(self, residual):
        comp = LowRankCompensator.from_residual(residual, rank=3)
        float_corr = comp.correction()
        comp.quantize(bits=3, group_size=16)
        quant_corr = comp.correction()
        assert np.linalg.norm(float_corr - quant_corr) / np.linalg.norm(float_corr) < 0.35

    def test_int8_quantization_closer_than_int3(self, residual):
        float_corr = LowRankCompensator.from_residual(residual, rank=3).correction()
        c3 = LowRankCompensator.from_residual(residual, rank=3).quantize(3, 16).correction()
        c8 = LowRankCompensator.from_residual(residual, rank=3).quantize(8, 16).correction()
        assert np.linalg.norm(c8 - float_corr) < np.linalg.norm(c3 - float_corr)

    def test_memory_of_unquantized_is_fp16(self, residual):
        comp = LowRankCompensator.from_residual(residual, rank=2)
        assert comp.memory_bytes() == (comp.U.size + comp.V.size) * 2

    def test_zero_rank_memory_and_correction(self):
        comp = LowRankCompensator(U=np.zeros((5, 0)), V=np.zeros((0, 7)))
        assert comp.memory_bytes() == 0.0
        assert np.allclose(comp.correction(), 0.0)
        assert comp.rank == 0

    def test_deployment_factors_are_quantized_when_available(self, residual):
        comp = LowRankCompensator.from_residual(residual, rank=2).quantize(3, 16)
        U_dep, V_dep = comp.deployment_factors()
        assert not np.allclose(U_dep, comp.U)
        assert np.allclose(U_dep @ V_dep, comp.correction())

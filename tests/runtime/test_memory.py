"""Tests for full-scale deployment memory accounting (Table 3 / Table 7 memory column)."""

import pytest

from repro.models import FULL_MODEL_SPECS
from repro.runtime.memory import (
    build_inventory,
    fp16_model_memory_gb,
    quantizable_params,
    quantized_model_memory_gb,
    strategy_compensator_gb,
)

MIXTRAL = FULL_MODEL_SPECS["mixtral-8x7b"]
DEEPSEEK = FULL_MODEL_SPECS["deepseek-moe"]


class TestInventory:
    def test_quantizable_params_near_total(self):
        inventory = build_inventory(MIXTRAL)
        total = MIXTRAL.params_billions * 1e9
        assert 0.9 * total < inventory.quantizable_params <= total * 1.05

    def test_deepseek_has_shared_expert_shapes(self):
        inventory = build_inventory(DEEPSEEK)
        assert inventory.shared_expert_shapes
        assert inventory.expert_shapes

    def test_mixtral_has_no_shared_experts(self):
        assert build_inventory(MIXTRAL).shared_expert_shapes == []


def _inventory_memory_gb(spec, bits, asymmetric, group_size=64, metadata_bits=16):
    """The memory formula summed over the enumerated inventory."""
    inventory = build_inventory(spec)
    qparams = inventory.quantizable_params
    entries = 2 if asymmetric else 1
    code_bytes = qparams * bits / 8.0
    metadata_bytes = qparams / group_size * entries * metadata_bits / 8.0
    other_bytes = inventory.other_params * 2
    return (code_bytes + metadata_bytes + other_bytes) / 1024**3


class TestClosedFormCounts:
    @pytest.mark.parametrize("name", sorted(FULL_MODEL_SPECS))
    def test_param_count_equals_inventory_sum(self, name):
        spec = FULL_MODEL_SPECS[name]
        assert quantizable_params(spec) == build_inventory(spec).quantizable_params

    @pytest.mark.parametrize("name", sorted(FULL_MODEL_SPECS))
    @pytest.mark.parametrize("bits", [3, 4, 16])
    @pytest.mark.parametrize("asymmetric", [True, False])
    def test_memory_equals_inventory_formula(self, name, bits, asymmetric):
        spec = FULL_MODEL_SPECS[name]
        got = quantized_model_memory_gb(spec, bits=bits, asymmetric=asymmetric)
        assert got == _inventory_memory_gb(spec, bits, asymmetric)


class TestFP16Memory:
    def test_mixtral_needs_about_90gb(self):
        assert fp16_model_memory_gb(MIXTRAL) == pytest.approx(90.0, rel=0.05)

    def test_mixtral_exceeds_a100(self):
        assert fp16_model_memory_gb(MIXTRAL) > 40.0
        assert fp16_model_memory_gb(MIXTRAL) > 80.0


class TestQuantizedMemory:
    def test_mixtral_w3_matches_table3(self):
        """Paper Table 3: W3A16 Mixtral-8x7B is ~20.5 GB (RTN/HQQ columns)."""
        gb = quantized_model_memory_gb(MIXTRAL, bits=3, group_size=64, asymmetric=True)
        assert gb == pytest.approx(20.5, rel=0.10)

    def test_deepseek_w3_matches_table3(self):
        """Paper Table 3: W3A16 DeepSeek-MoE is ~7.67 GB."""
        gb = quantized_model_memory_gb(DEEPSEEK, bits=3, group_size=64, asymmetric=True)
        assert gb == pytest.approx(7.67, rel=0.10)

    def test_w4_larger_than_w3(self):
        w3 = quantized_model_memory_gb(MIXTRAL, bits=3)
        w4 = quantized_model_memory_gb(MIXTRAL, bits=4)
        assert w3 < w4 < fp16_model_memory_gb(MIXTRAL)

    def test_symmetric_metadata_cheaper(self):
        asym = quantized_model_memory_gb(MIXTRAL, bits=3, asymmetric=True)
        sym = quantized_model_memory_gb(MIXTRAL, bits=3, asymmetric=False)
        assert sym < asym

    def test_larger_groups_cheaper(self):
        g64 = quantized_model_memory_gb(MIXTRAL, bits=3, group_size=64)
        g128 = quantized_model_memory_gb(MIXTRAL, bits=3, group_size=128)
        assert g128 < g64


class TestCompensatorMemory:
    def test_mixtral_s1_adds_about_300mb(self):
        """Paper Table 3: MiLo-s1 is 20.8 GB vs 20.5 GB for HQQ (~0.3 GB of compensators)."""
        extra = strategy_compensator_gb(MIXTRAL, "mixtral-s1")
        assert extra == pytest.approx(0.3, rel=0.3)

    def test_deepseek_s1_adds_about_300mb(self):
        """Paper Table 3: MiLo-s1 DeepSeek is 7.98 GB vs 7.67 GB for HQQ."""
        extra = strategy_compensator_gb(DEEPSEEK, "deepseek-s1")
        assert extra == pytest.approx(0.31, rel=0.35)

    def test_s2_larger_than_s1(self):
        assert strategy_compensator_gb(MIXTRAL, "mixtral-s2") > strategy_compensator_gb(
            MIXTRAL, "mixtral-s1"
        )

    def test_compensators_are_small_fraction_of_model(self):
        extra = strategy_compensator_gb(MIXTRAL, "mixtral-s2")
        base = quantized_model_memory_gb(MIXTRAL, bits=3)
        assert extra / base < 0.05

    def test_accepts_strategy_object(self):
        from repro.core.strategies import PAPER_STRATEGIES

        via_name = strategy_compensator_gb(MIXTRAL, "mixtral-s1")
        via_obj = strategy_compensator_gb(MIXTRAL, PAPER_STRATEGIES["mixtral-s1"])
        assert via_name == via_obj

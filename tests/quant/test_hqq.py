"""Tests for the half-quadratic (HQQ) quantizer."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.init import heavy_tailed_weight
from repro.quant import HQQConfig, HQQQuantizer, RTNQuantizer, shrink_lp
from repro.quant.hqq import _dead_zone


class TestShrinkLp:
    def test_zero_input_maps_to_zero(self):
        assert np.all(shrink_lp(np.zeros(5), beta=10.0, p=0.7) == 0)

    def test_small_values_are_shrunk_to_zero(self):
        out = shrink_lp(np.array([1e-4, -1e-4]), beta=10.0, p=0.7)
        assert np.all(out == 0)

    def test_large_values_keep_sign_and_shrink(self):
        x = np.array([5.0, -5.0])
        out = shrink_lp(x, beta=10.0, p=0.7)
        assert np.all(np.sign(out) == np.sign(x))
        assert np.all(np.abs(out) < np.abs(x))

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            shrink_lp(np.ones(3), beta=1.0, p=1.5)
        with pytest.raises(ValueError):
            shrink_lp(np.ones(3), beta=-1.0, p=0.5)

    @pytest.mark.parametrize(
        "magnitude, beta",
        [(5e-324, 1e-3), (1e-300, 1e-9)],
        ids=["power_overflows", "division_overflows"],
    )
    def test_dead_zone_overflow_is_silent(self, magnitude, beta):
        # |x|^(p-1) / beta overflows to inf for magnitudes deep inside the
        # dead zone; inf is the intended threshold, so no warning may escape.
        p = 0.001
        assert magnitude < _dead_zone(beta, p)
        x = np.array([magnitude, -magnitude, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = shrink_lp(x, beta=beta, p=p)
        assert np.all(out == 0)

    @given(st.floats(0.1, 0.9), st.floats(0.5, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_magnitude_never_increases(self, p, beta):
        x = np.linspace(-3, 3, 31)
        out = shrink_lp(x, beta=beta, p=p)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)

    @given(
        st.floats(1e-3, 1 - 1e-3),
        st.floats(1e-3, 1e3),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_exactly_zero_inside_the_dead_zone(self, p, beta, fractions):
        # The identity HQQQuantizer.quantize relies on to skip shrink_lp.
        bound = _dead_zone(beta, p)
        magnitudes = np.array([0.0, bound, *(f * bound for f in fractions)])
        x = np.concatenate([magnitudes, -magnitudes])
        assert np.all(shrink_lp(x, beta=beta, p=p) == 0)
        # The bound is not vacuous: a few times beta^(-1/(2-p)) survives shrinkage.
        above = 4 * beta ** (-1.0 / (2.0 - p))
        assert np.all(shrink_lp(np.array([above, -above]), beta=beta, p=p) != 0)


class TestHQQ:
    @pytest.fixture()
    def heavy_weight(self):
        return heavy_tailed_weight((64, 128), rng=np.random.default_rng(0))

    def test_reduces_error_relative_to_rtn(self, heavy_weight):
        rtn = RTNQuantizer(3, 64).quantize(heavy_weight).dequantize()
        hqq = HQQQuantizer(HQQConfig(bits=3, group_size=64)).quantize(heavy_weight).dequantize()
        assert np.linalg.norm(heavy_weight - hqq) < np.linalg.norm(heavy_weight - rtn)

    def test_codes_in_range(self, heavy_weight):
        qm = HQQQuantizer(HQQConfig(bits=3, group_size=64)).quantize(heavy_weight)
        assert qm.codes.min() >= 0 and qm.codes.max() <= 7

    def test_stats_record_iterations(self, heavy_weight):
        qm = HQQQuantizer(HQQConfig(bits=3, group_size=64, iters=5)).quantize(heavy_weight)
        assert 1 <= qm.stats["hqq_iters"] <= 5

    def test_target_shifting_changes_reconstruction(self, heavy_weight):
        quantizer = HQQQuantizer(HQQConfig(bits=3, group_size=64))
        plain = quantizer.quantize(heavy_weight).dequantize()
        shifted = quantizer.quantize(heavy_weight, target=heavy_weight * 0.3).dequantize()
        assert not np.allclose(plain, shifted)

    def test_int4_better_than_int3(self, heavy_weight):
        e3 = np.linalg.norm(
            heavy_weight - HQQQuantizer(HQQConfig(bits=3, group_size=64)).quantize(heavy_weight).dequantize()
        )
        e4 = np.linalg.norm(
            heavy_weight - HQQQuantizer(HQQConfig(bits=4, group_size=64)).quantize(heavy_weight).dequantize()
        )
        assert e4 < e3

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(ValueError):
            HQQQuantizer(HQQConfig(), bits=4)

    def test_keyword_overrides(self):
        q = HQQQuantizer(bits=4, group_size=32)
        assert q.bits == 4 and q.group_size == 32

    def test_calibration_free_flag(self):
        assert HQQQuantizer().calibration_free is True


BAD_CONFIG_VALUES = [
    ("bits", 1),
    ("bits", 9),
    ("group_size", 0),
    ("p_norm", -1.0),
    ("p_norm", 0.0),
    ("p_norm", 1.0),
    ("p_norm", 2.0),
    ("p_norm", float("nan")),
    ("beta", 0.0),
    ("beta", -10.0),
    ("kappa", 0.0),
    ("kappa", -1.01),
    ("iters", 0),
    ("early_stop_tol", -1e-9),
]


class TestHQQConfigValidation:
    @pytest.mark.parametrize("name, value", BAD_CONFIG_VALUES)
    def test_bad_value_rejected_by_config(self, name, value):
        with pytest.raises(ValueError, match=f"HQQConfig.{name}"):
            HQQConfig(**{name: value})

    @pytest.mark.parametrize("name, value", BAD_CONFIG_VALUES)
    def test_bad_value_rejected_by_quantizer_overrides(self, name, value):
        with pytest.raises(ValueError, match=f"HQQConfig.{name}"):
            HQQQuantizer(**{name: value})

    def test_edge_values_accepted(self):
        HQQConfig(bits=2, group_size=1, p_norm=1e-3, beta=1e-9, kappa=1e-9, iters=1, early_stop_tol=0.0)
        HQQConfig(bits=8, p_norm=0.999)

"""The HQQ and MiLo loops against verbatim copies of their straightforward forms.

``HQQQuantizer.quantize`` skips the ``l_p`` shrinkage whenever it is provably
``±0`` and recomputes only the groups whose codes can still change;
``MiLoMatrixOptimizer.optimize`` computes ``U @ V`` once per outer iteration.
Both must reproduce the plain loops below bit for bit: codes, zero points,
scales, stats, error histories and deployed weights.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import ModelCompressor, build_strategy
from repro.core.compensator import LowRankCompensator, truncated_svd_factors
from repro.core.milo import MiLoMatrixOptimizer, MiLoMatrixResult
from repro.models import build_model
from repro.quant import HQQConfig, HQQQuantizer, shrink_lp
from repro.quant import hqq as hqq_module
from repro.quant.base import QuantizedMatrix
from repro.quant.grid import QuantGrid, fit_minmax_grid, to_groups


def reference_quantize(self, weight, target=None):
    """The HQQ loop as first written: every array fresh, ``shrink_lp`` every iteration."""
    cfg = self.config
    weight = np.asarray(weight, dtype=np.float64)
    values = weight if target is None else np.asarray(target, dtype=np.float64)

    grouped = to_groups(values, cfg.group_size)
    groups = grouped.groups
    base_grid = fit_minmax_grid(groups, cfg.bits, symmetric=False)
    scale = base_grid.scale
    zero = base_grid.zero.copy()
    qmax = base_grid.qmax

    beta = cfg.beta
    prev_err = np.inf
    n_iters = 0
    for _ in range(cfg.iters):
        n_iters += 1
        codes = np.clip(np.round(groups / scale + zero), 0, qmax)
        dequant = scale * (codes - zero)
        residual = groups - dequant
        M = shrink_lp(residual, beta, cfg.p_norm)
        # Closed-form zero-point update: z = <W_q - (W_e - M)/s> per group.
        zero = np.mean(codes - (groups - M) / scale, axis=1, keepdims=True)
        beta *= cfg.kappa
        err = float(np.mean(np.abs(residual) ** cfg.p_norm))
        if abs(prev_err - err) / max(prev_err, 1e-12) < cfg.early_stop_tol:
            break
        prev_err = err

    codes = np.clip(np.round(groups / scale + zero), 0, qmax)
    grid = QuantGrid(scale=scale, zero=zero, bits=cfg.bits, symmetric=False)
    return QuantizedMatrix(
        codes=codes,
        grid=grid,
        original_shape=grouped.original_shape,
        group_size=cfg.group_size,
        pad=grouped.pad,
        stats={"method": self.name, "hqq_iters": n_iters, "final_lp_error": prev_err},
    )


def reference_optimize(self, weight, rank):
    """MiLo's outer loop as first written: ``U @ V`` evaluated twice per iteration."""
    cfg = self.config
    W = np.asarray(weight, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError(f"MiLo operates on 2-D weights, got shape {W.shape}")
    rank = max(0, int(rank))

    m, n = W.shape
    U = np.zeros((m, 0 if rank == 0 else rank))
    V = np.zeros((0 if rank == 0 else rank, n))
    if rank == 0:
        quantized = self._hqq.quantize(W)
        err = float(np.linalg.norm(W - quantized.dequantize()))
        compensator = LowRankCompensator(U=np.zeros((m, 0)), V=np.zeros((0, n)))
        return MiLoMatrixResult(
            quantized=quantized,
            compensator=compensator,
            rank=0,
            iterations=1,
            error_history=[err],
            converged=True,
            stop_reason="rank-0 (quantization only)",
        )

    history: list[float] = []
    window_means: list[float] = []
    quantized = None
    diverge_count = 0
    stop_reason = "max-iterations"
    iterations = 0

    for t in range(cfg.max_iterations):
        iterations = t + 1
        target = W - U @ V if U.shape[1] else W
        quantized = self._hqq.quantize(W, target=target)
        W_dq = quantized.dequantize()
        residual = W - W_dq
        U, V = truncated_svd_factors(residual, rank)

        eps_t = float(np.linalg.norm(W - W_dq - U @ V))
        history.append(eps_t)

        if len(history) >= 2 and eps_t > history[-2] * (1 + 1e-12):
            diverge_count += 1
            if diverge_count >= cfg.divergence_patience:
                stop_reason = "diverged"
                break
        else:
            diverge_count = 0

        if len(history) >= cfg.window:
            window_means.append(float(np.mean(history[-cfg.window :])))
        if len(window_means) >= 2:
            prev, curr = window_means[-2], window_means[-1]
            if prev > 0 and (prev - curr) / prev < cfg.stop_tol:
                stop_reason = "converged"
                break

    assert quantized is not None
    compensator = LowRankCompensator(U=U, V=V, group_size=cfg.compensator_group_size)
    if cfg.compensator_bits is not None:
        compensator.quantize(bits=cfg.compensator_bits, group_size=cfg.compensator_group_size)

    return MiLoMatrixResult(
        quantized=quantized,
        compensator=compensator,
        rank=rank,
        iterations=iterations,
        error_history=history,
        converged=stop_reason in ("converged", "rank-0 (quantization only)"),
        stop_reason=stop_reason,
    )


def _assert_same_quantization(expected, actual):
    assert actual.codes.tobytes() == expected.codes.tobytes()
    assert actual.grid.zero.tobytes() == expected.grid.zero.tobytes()
    assert actual.grid.scale.tobytes() == expected.grid.scale.tobytes()
    assert actual.codes.shape == expected.codes.shape
    assert (actual.original_shape, actual.pad) == (expected.original_shape, expected.pad)
    assert repr(actual.stats) == repr(expected.stats)


def _random_case(rng):
    """One draw of shape, bit width, group size, beta, kappa, p, weight scale and target."""
    group_size = int(rng.integers(16, 129))
    out_features = int(rng.integers(1, 48))
    in_features = int(rng.integers(1, 4 * group_size))
    config = HQQConfig(
        bits=int(rng.integers(2, 9)),
        group_size=group_size,
        p_norm=float(rng.choice([0.3, 0.5, 0.7, 0.9, rng.uniform(0.3, 0.9)])),
        beta=float(10 ** rng.uniform(np.log10(0.5), 2.0)),
        kappa=float(rng.choice([0.2, 0.5, 1.01, 1.5, 3.0])),
        iters=int(rng.choice([1, 5, 20])),
    )
    magnitude = 10 ** rng.uniform(-6.0, np.log10(300.0))
    weight = rng.standard_normal((out_features, in_features)) * magnitude
    target = None
    if rng.random() < 0.5:
        target = weight - 0.1 * magnitude * rng.standard_normal(weight.shape)
    return config, weight, target


def _dead_zone_edge_case(rng):
    """A grid whose half-step sits at the shrinkage threshold, with beta shrinking.

    ``shrink_lp`` is ``±0`` for ``|x| <= beta^(-1/(2-p))``, twice the dead-zone
    bound.  Uniform weights put the min/max grid's largest residual near a
    half-step, drawn here at 0.75-1.5x that threshold, so the first updates
    are live and some move zeros; ``kappa <= 0.5`` then widens the dead zone
    1.5-8x per iteration, so dead updates follow a zero-moving live one.
    """
    group_size = int(rng.integers(16, 129))
    out_features = int(rng.integers(1, 48))
    in_features = int(rng.integers(1, 4 * group_size))
    bits = int(rng.integers(2, 9))
    p = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
    beta = float(10 ** rng.uniform(np.log10(0.5), 2.0))
    config = HQQConfig(
        bits=bits,
        group_size=group_size,
        p_norm=p,
        beta=beta,
        kappa=float(rng.choice([0.1, 0.2, 0.3, 0.5])),
        iters=20,
    )
    half_step = beta ** (-1.0 / (2.0 - p)) * rng.uniform(0.75, 1.5)
    weight = rng.uniform(-1.0, 1.0, (out_features, in_features)) * half_step * (2**bits - 1)
    return config, weight, None


def _signed_zero_cases():
    """Groups made of signed zeros and on-grid values: exact-zero zero-point updates."""
    on_grid = np.arange(16, dtype=np.float64) * 0.5
    rows = [np.zeros(16), np.full(16, -0.0), on_grid, -on_grid, on_grid - on_grid.max()]
    mixed = np.zeros(16)
    mixed[1::2] = -0.0
    rows.append(mixed)
    weight = np.array(rows)
    return [
        (HQQConfig(bits=bits, group_size=16), weight, target)
        for bits in (2, 3, 4)
        for target in (None, -weight)
    ]


def _sweep(monkeypatch, cases):
    """Compare every case with the reference; return the reference's update kinds.

    One letter per reference iteration: ``d`` when its residual passes the
    dead-zone test (the loop then takes the dead update unless a zero comes
    out exactly 0), else ``L`` when ``shrink_lp`` moves some element of ``M``
    off zero and ``l`` when it does not.
    """
    plain_shrink = shrink_lp
    live_calls = 0
    kinds: list[str] = []

    def counting_shrink(x, beta, p):
        nonlocal live_calls
        live_calls += 1
        return plain_shrink(x, beta, p)

    def classifying_shrink(x, beta, p):
        M = plain_shrink(x, beta, p)
        if np.abs(x).max(initial=0.0) <= hqq_module._dead_zone(beta, p):
            kinds[-1] += "d"
        else:
            kinds[-1] += "L" if M.any() else "l"
        return M

    monkeypatch.setattr(hqq_module, "shrink_lp", counting_shrink)
    monkeypatch.setitem(globals(), "shrink_lp", classifying_shrink)
    total_iters = 0
    for config, weight, target in cases:
        quantizer = HQQQuantizer(config)
        kinds.append("")
        expected = reference_quantize(quantizer, weight, target)
        actual = quantizer.quantize(weight, target)
        _assert_same_quantization(expected, actual)
        total_iters += actual.stats["hqq_iters"]

    # Both the dead-shrinkage shortcut and the live shrink path ran.
    assert 0 < live_calls < total_iters
    return kinds


def _assert_settling_covered(kinds):
    # Live updates after two dead ones, the last of them moving zeros: the
    # first live update must put every settled group back into play.
    assert any(re.search("ddl*L", k) for k in kinds)
    # A dead update right after a zero-moving live one, and an iteration after
    # it: codes that repeat across a live update must not settle a group.
    assert any(re.search("Ld.", k) for k in kinds)


def test_quantize_matches_reference_over_a_seeded_sweep(monkeypatch):
    rng = np.random.default_rng(20250613)
    cases = [_random_case(rng) for _ in range(240)]
    cases += [_dead_zone_edge_case(rng) for _ in range(120)]
    _assert_settling_covered(_sweep(monkeypatch, cases + _signed_zero_cases()))


@pytest.mark.slow
def test_quantize_matches_reference_over_a_long_sweep(monkeypatch):
    rng = np.random.default_rng(20261020)
    cases = [_random_case(rng) for _ in range(1000)]
    cases += [_dead_zone_edge_case(rng) for _ in range(1000)]
    _assert_settling_covered(_sweep(monkeypatch, cases))


def test_compressor_matches_reference_loops(monkeypatch):
    def compress():
        model = build_model("tiny-moe")
        originals = [path for path, _, _ in model.iter_quantizable()]
        policy = build_strategy("mixtral-s1", model.config)
        model, report = ModelCompressor(method="milo", bits=3, rank_policy=policy).compress(model)
        weights = {
            path: model.get_submodule(path.rsplit(".weight", 1)[0]).effective_weight().tobytes()
            for path in originals
        }
        return weights, report.layer_stats

    weights, stats = compress()
    with monkeypatch.context() as patch:
        patch.setattr(HQQQuantizer, "quantize", reference_quantize)
        patch.setattr(MiLoMatrixOptimizer, "optimize", reference_optimize)
        ref_weights, ref_stats = compress()

    assert weights == ref_weights
    assert stats == ref_stats
    assert any(s["rank"] > 0 and s["iterations"] > 1 for s in stats.values())


@pytest.mark.parametrize("rank", [0, 3])
def test_milo_optimize_matches_reference(rank):
    weight = np.random.default_rng(rank).standard_normal((48, 96)) * 0.02
    optimizer = MiLoMatrixOptimizer()
    expected = reference_optimize(optimizer, weight, rank)
    actual = optimizer.optimize(weight, rank)
    _assert_same_quantization(expected.quantized, actual.quantized)
    assert actual.error_history == expected.error_history
    assert (actual.iterations, actual.stop_reason) == (expected.iterations, expected.stop_reason)
    assert actual.reconstructed().tobytes() == expected.reconstructed().tobytes()

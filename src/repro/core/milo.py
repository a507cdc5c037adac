"""MiLo matrix-level optimizer (paper Algorithm 1).

For one weight matrix ``W`` and a target rank ``r``, MiLo alternates two
sub-problems until the stop condition is met:

* **sp1 — quantization with the compensator fixed**: re-run the HQQ
  half-quadratic zero-point optimization against the shifted target
  ``W - U^{t-1} V^{t-1}`` (paper §3.2.2).  At iteration 0 the compensator is
  zero, so sp1 reduces to plain HQQ.
* **sp2 — compensation with the quantization fixed**: set ``(U^t, V^t)`` to
  the truncated SVD of the residual ``E^t = W - W_dq^t`` (paper §3.2.3).

The per-iteration error ``eps_t = ||W - W_dq^t - U^t V^t||_F`` (Eq. 13) is
recorded — it is what Fig. 7 plots — and the loop stops when the
three-iteration sliding-window average improves by less than ``1e-4``
relative (Eq. 14) or when the ``early_stop`` iteration cap (20 by default) is
reached, or if the error starts to diverge.

After convergence the compensator is quantized symmetrically (INT3 by
default, paper §3.2.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..quant.base import QuantizedMatrix
from ..quant.hqq import HQQConfig, HQQQuantizer
from .compensator import LowRankCompensator, truncated_svd_factors

__all__ = ["MiLoConfig", "MiLoMatrixResult", "MiLoMatrixOptimizer"]


@dataclass
class MiLoConfig:
    """Hyper-parameters of the MiLo iterative optimization."""

    bits: int = 3
    group_size: int = 64
    max_iterations: int = 20          # the paper's early-stop cap
    stop_tol: float = 1e-4            # Eq. 14 threshold
    window: int = 3                   # sliding window for the stop condition
    divergence_patience: int = 2      # consecutive increases of eps_t before aborting
    compensator_bits: int | None = 3  # None keeps the compensator in FP16
    compensator_group_size: int = 64
    hqq: HQQConfig = field(default_factory=HQQConfig)

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        # Keep the inner quantizer consistent with the outer settings.
        self.hqq = HQQConfig(
            bits=self.bits,
            group_size=self.group_size,
            p_norm=self.hqq.p_norm,
            beta=self.hqq.beta,
            kappa=self.hqq.kappa,
            iters=self.hqq.iters,
            early_stop_tol=self.hqq.early_stop_tol,
        )


@dataclass
class MiLoMatrixResult:
    """Output of MiLo for a single weight matrix."""

    quantized: QuantizedMatrix
    compensator: LowRankCompensator
    rank: int
    iterations: int
    error_history: list[float]
    converged: bool
    stop_reason: str

    def dequantized_base(self) -> np.ndarray:
        """``Q^{-1}(W_q)`` — the quantized base weight without the compensator."""
        return self.quantized.dequantize()

    def reconstructed(self) -> np.ndarray:
        """Deployment reconstruction ``Q^{-1}(W_q) + Q^{-1}(U_q) Q^{-1}(V_q)``."""
        return self.dequantized_base() + self.compensator.correction()

    def final_error(self) -> float:
        return self.error_history[-1] if self.error_history else float("nan")


class MiLoMatrixOptimizer:
    """Runs Algorithm 1 on individual weight matrices."""

    def __init__(self, config: MiLoConfig | None = None) -> None:
        self.config = config or MiLoConfig()
        self._hqq = HQQQuantizer(self.config.hqq)

    def optimize(self, weight: np.ndarray, rank: int) -> MiLoMatrixResult:
        """Jointly optimize the quantization and a rank-``r`` compensator of ``weight``."""
        cfg = self.config
        W = np.asarray(weight, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"MiLo operates on 2-D weights, got shape {W.shape}")
        rank = max(0, int(rank))

        m, n = W.shape
        U = np.zeros((m, 0 if rank == 0 else rank))
        V = np.zeros((0 if rank == 0 else rank, n))
        if rank == 0:
            # Degenerate case: plain HQQ, one pass, no compensator.
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
        quantized: QuantizedMatrix | None = None
        diverge_count = 0
        stop_reason = "max-iterations"
        iterations = 0

        target = W
        for t in range(cfg.max_iterations):
            iterations = t + 1
            # sp1: re-quantize against the compensator-shifted target.
            quantized = self._hqq.quantize(W, target=target)
            W_dq = quantized.dequantize()
            # sp2: best rank-r approximation of the fresh residual.
            residual = W - W_dq
            U, V = truncated_svd_factors(residual, rank)
            UV = U @ V

            eps_t = float(np.linalg.norm(residual - UV))
            history.append(eps_t)
            target = W - UV  # the next sp1 target

            # Divergence guard (the paper aborts if the error starts to grow).
            if len(history) >= 2 and eps_t > history[-2] * (1 + 1e-12):
                diverge_count += 1
                if diverge_count >= cfg.divergence_patience:
                    stop_reason = "diverged"
                    break
            else:
                diverge_count = 0

            # Sliding-window relative-improvement stop condition (Eq. 14).
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

"""Half-Quadratic Quantization (HQQ) — the calibration-free quantizer MiLo builds on.

HQQ (Badri & Shaji, 2023) keeps the min/max scale fixed and optimizes the
per-group zero point so the reconstruction error under a sparsity-promoting
``l_p`` (p < 1) loss is minimized.  The non-smooth problem is split with an
auxiliary variable ``M`` (half-quadratic splitting):

    min_{z, M}  ||M||_p  +  beta/2 * ||M - (W_e - W_dq(z))||_2^2

and solved by alternating

* an ``M`` update via the generalized soft-thresholding (shrinkage) operator
  (paper Eqs. 6–7), and
* a closed-form ``z`` update: the group-wise mean of ``W_q - (W_e - M)/s``
  (paper Eq. 8, written here in the sign convention of our de-quantizer
  ``W_dq = s (W_q - z)``).

``W_e`` is the *effective target*: the raw weight for plain HQQ, or
``W - U V`` when MiLo re-quantizes against the low-rank residual.

**Dead shrinkage.**  ``shrink_lp(x, beta, p)`` is exactly ``±0`` whenever
``|x|^(2-p) <= 1/beta``, i.e. ``|x| <= beta^(-1/(2-p))`` (about 0.17 at the
defaults ``beta = 10``, ``p = 0.7``), because the threshold ``|x|^(p-1)/beta``
then exceeds ``|x|``.  The residual of a ``b``-bit min/max grid is at most
about half a step, far below that bound for real weights, so on most
iterations ``M`` is zero everywhere and its full-matrix ``|x|^(p-1)`` is
wasted work.  :meth:`HQQQuantizer.quantize` therefore skips ``shrink_lp``
when ``max|residual| <= ½·beta^(-1/(2-p))`` (:func:`_dead_zone`; the factor
½ keeps a 2^(2-p)-fold margin over rounding in the power).  The update is
then ``mean(W_q - W_e/s)`` and equals the shrink path bit for bit:
``W_e - (±0)`` differs from ``W_e`` at most in the sign of a zero, so every
element of ``W_q - (W_e - M)/s`` -- and hence every pairwise partial sum of
the group mean -- can differ only in the sign of a zero.  Only an update
that comes out exactly zero could tell the two apart; rather than lean on
NumPy's signed-zero conventions, such an update takes the shrink path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import QuantizedMatrix
from .grid import QuantGrid, fit_minmax_grid, to_groups

__all__ = ["HQQConfig", "HQQQuantizer", "shrink_lp"]


def shrink_lp(x: np.ndarray, beta: float, p: float) -> np.ndarray:
    """Generalized soft-thresholding operator for the l_p (p < 1) prior.

    ``shrink(x, beta) = sign(x) * relu(|x| - |x|^(p-1) / beta)`` (paper Eq. 7).
    For very small ``|x|`` the ``|x|^(p-1)`` term blows up and the output is
    driven to zero, which is exactly the intended behaviour (insignificant
    values are absorbed into the auxiliary variable).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"shrink_lp expects 0 < p < 1, got {p}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = np.asarray(x, dtype=np.float64)
    absx = np.abs(x)
    with np.errstate(divide="ignore", over="ignore"):
        threshold = np.where(absx > 0, absx ** (p - 1.0), np.inf) / beta
    return np.sign(x) * np.maximum(absx - threshold, 0.0)


def _dead_zone(beta: float, p: float) -> float:
    """Half the magnitude ``beta^(-1/(2-p))`` below which ``shrink_lp`` returns ``±0``."""
    return 0.5 * beta ** (-1.0 / (2.0 - p))


@dataclass
class HQQConfig:
    """Hyper-parameters of the half-quadratic solver (HQQ defaults)."""

    bits: int = 3
    group_size: int = 64
    p_norm: float = 0.7
    beta: float = 10.0
    kappa: float = 1.01       # beta growth factor per inner iteration
    iters: int = 20           # inner iterations of the half-quadratic solver
    early_stop_tol: float = 1e-5


def _round_codes(scaled: np.ndarray, zero: np.ndarray, qmax: int, out: np.ndarray) -> None:
    """``out = clip(round(W_e / s + z), 0, qmax)``, written in place."""
    np.add(scaled, zero, out=out)
    np.rint(out, out=out)
    np.clip(out, 0, qmax, out=out)


class HQQQuantizer:
    """Calibration-free group-wise quantizer with half-quadratic zero-point optimization."""

    name = "hqq"
    calibration_free = True

    def __init__(self, config: HQQConfig | None = None, **overrides) -> None:
        self.config = config or HQQConfig(**overrides)
        if config is not None and overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")

    @property
    def bits(self) -> int:
        return self.config.bits

    @property
    def group_size(self) -> int:
        return self.config.group_size

    def quantize(self, weight: np.ndarray, target: np.ndarray | None = None) -> QuantizedMatrix:
        """Quantize ``weight`` (or the MiLo residual ``target``) with optimized zero points."""
        cfg = self.config
        weight = np.asarray(weight, dtype=np.float64)
        values = weight if target is None else np.asarray(target, dtype=np.float64)

        grouped = to_groups(values, cfg.group_size)
        groups = grouped.groups
        base_grid = fit_minmax_grid(groups, cfg.bits, symmetric=False)
        scale = base_grid.scale
        zero = base_grid.zero.copy()
        qmax = base_grid.qmax
        p = cfg.p_norm

        # The scale never changes, so W_e / s is loop-invariant; the loop works
        # in preallocated buffers.
        scaled = groups / scale
        codes = np.empty_like(scaled)
        residual = np.empty_like(scaled)
        work = np.empty_like(scaled)

        beta = cfg.beta
        prev_err = np.inf
        n_iters = 0
        for _ in range(cfg.iters):
            n_iters += 1
            _round_codes(scaled, zero, qmax, out=codes)
            # residual = W_e - s (W_q - z)
            np.subtract(codes, zero, out=residual)
            np.multiply(scale, residual, out=residual)
            np.subtract(groups, residual, out=residual)
            abs_residual = np.abs(residual, out=work)
            dead = abs_residual.max(initial=0.0) <= _dead_zone(beta, p)
            abs_residual **= p
            err = float(np.add.reduce(abs_residual, axis=None) / abs_residual.size)
            # Closed-form zero-point update: z = <W_q - (W_e - M)/s> per group.
            new_zero = None
            if dead:
                # M is ±0 everywhere (see the module docstring).
                np.subtract(codes, scaled, out=work)
                new_zero = np.add.reduce(work, axis=1, keepdims=True) / work.shape[1]
            if new_zero is None or not new_zero.all():
                M = shrink_lp(residual, beta, p)
                new_zero = np.mean(codes - (groups - M) / scale, axis=1, keepdims=True)
            zero = new_zero
            beta *= cfg.kappa
            if abs(prev_err - err) / max(prev_err, 1e-12) < cfg.early_stop_tol:
                break
            prev_err = err

        _round_codes(scaled, zero, qmax, out=codes)
        grid = QuantGrid(scale=scale, zero=zero, bits=cfg.bits, symmetric=False)
        return QuantizedMatrix(
            codes=codes,
            grid=grid,
            original_shape=grouped.original_shape,
            group_size=cfg.group_size,
            pad=grouped.pad,
            stats={"method": self.name, "hqq_iters": n_iters, "final_lp_error": prev_err},
        )

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

**Settled groups.**  A dead update of one group's zero depends only on that
group's codes.  So if a group's codes are equal at iterations ``k-1`` and
``k`` and the updates at both were dead, its zero for ``k+1`` equals its zero
for ``k`` bit for bit, and from then on its codes, ``|residual|`` and
``|residual|^p`` cannot change until a live (``shrink_lp``) update.  The
loop keeps every group's codes, ``|residual|`` and ``|residual|^p`` in
full-size buffers and recomputes only the groups still moving (a few percent
after the first handful of iterations on real weights).  The dead-zone
``max`` and the ``err`` sum still run over the full buffers, whose values are
those a full recompute would produce, so their summation order and hence
``err``, the early stop, ``hqq_iters`` and ``final_lp_error`` are unchanged.
A settled group's zero came from an accepted dead update, so it is non-zero
and needs no exact-zero check.  The first iteration and the one after a live
update compare nothing, and a live update recomputes from the full buffers
and puts every group back in play.
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

    def __post_init__(self) -> None:
        # Each test reads "valid", so a NaN fails it too.
        for name, valid, requirement in (
            ("bits", 2 <= self.bits <= 8, "in [2, 8]"),
            ("group_size", self.group_size >= 1, "at least 1"),
            ("p_norm", 0.0 < self.p_norm < 1.0, "in (0, 1)"),
            ("beta", self.beta > 0.0, "positive"),
            ("kappa", self.kappa > 0.0, "positive"),
            ("iters", self.iters >= 1, "at least 1"),
            ("early_stop_tol", self.early_stop_tol >= 0.0, "non-negative"),
        ):
            if not valid:
                value = getattr(self, name)
                raise ValueError(f"HQQConfig.{name} must be {requirement}, got {value!r}")


def _round_codes(
    scaled: np.ndarray, zero: np.ndarray, qmax: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``clip(round(W_e / s + z), 0, qmax)``, written into ``out`` if given."""
    out = np.add(scaled, zero, out=out)
    np.rint(out, out=out)
    out.clip(0, qmax, out=out)
    return out


def _take_rows(a: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
    """The groups ``rows`` of ``a``: a view for ``slice(None)``, else a copy."""
    return a[rows] if isinstance(rows, slice) else a.take(rows, axis=0)


def _residual(
    groups: np.ndarray, scale: np.ndarray, codes: np.ndarray, zero: np.ndarray
) -> np.ndarray:
    """``W_e - s (W_q - z)`` in a fresh array."""
    residual = codes - zero
    np.multiply(scale, residual, out=residual)
    np.subtract(groups, residual, out=residual)
    return residual


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

        # The scale never changes, so W_e / s is loop-invariant.  The full
        # buffers hold every group's latest codes, |residual| and |residual|^p;
        # an iteration recomputes only the groups in ``rows`` (see "Settled
        # groups" in the module docstring).
        scaled = groups / scale
        width = scaled.shape[1]
        codes = np.empty_like(scaled)
        abs_residual = np.empty_like(scaled)
        lp_residual = np.empty_like(scaled)
        rows: slice | np.ndarray = slice(None)
        compare = False  # the previous update was dead

        beta = cfg.beta
        prev_err = np.inf
        n_iters = 0
        for _ in range(cfg.iters):
            n_iters += 1
            rows_scaled = _take_rows(scaled, rows)
            rows_zero = _take_rows(zero, rows)
            rows_codes = _round_codes(rows_scaled, rows_zero, qmax)
            if compare:
                same = (rows_codes == _take_rows(codes, rows)).all(axis=1)
            codes[rows] = rows_codes
            rows_residual = _residual(
                _take_rows(groups, rows), _take_rows(scale, rows), rows_codes, rows_zero
            )
            np.abs(rows_residual, out=rows_residual)
            abs_residual[rows] = rows_residual
            rows_residual **= p
            lp_residual[rows] = rows_residual
            err = float(np.add.reduce(lp_residual, axis=None) / lp_residual.size)
            # Closed-form zero-point update: z = <W_q - (W_e - M)/s> per group.
            rows_new_zero = None
            if abs_residual.max(initial=0.0) <= _dead_zone(beta, p):
                # M is ±0 everywhere (see the module docstring).
                np.subtract(rows_codes, rows_scaled, out=rows_codes)
                rows_new_zero = np.add.reduce(rows_codes, axis=1, keepdims=True) / width
            # Settled groups keep zeros that an accepted dead update made non-zero.
            if rows_new_zero is not None and rows_new_zero.all():
                zero[rows] = rows_new_zero
                if compare:
                    moving = ~same
                    rows = moving.nonzero()[0] if isinstance(rows, slice) else rows[moving]
                compare = True
            else:
                M = shrink_lp(_residual(groups, scale, codes, zero), beta, p)
                zero = np.mean(codes - (groups - M) / scale, axis=1, keepdims=True)
                rows = slice(None)
                compare = False
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

"""Common result types and the quantizer interface."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .grid import QuantGrid, dequantize_with_grid

__all__ = ["QuantizedMatrix", "MatrixQuantizer"]


@dataclass
class QuantizedMatrix:
    """The result of quantizing one weight matrix.

    Attributes
    ----------
    codes:
        Integer codes, grouped layout ``(num_groups, group_size)``.
    grid:
        The per-group scale/zero-point grid.
    original_shape:
        ``(out_features, in_features)`` of the source weight.
    group_size:
        Quantization group size along the input dimension.
    stats:
        Free-form per-matrix diagnostics (iterations, errors, timings).
    """

    codes: np.ndarray
    grid: QuantGrid
    original_shape: tuple[int, int]
    group_size: int
    pad: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def bits(self) -> int:
        return self.grid.bits

    def dequantize(self) -> np.ndarray:
        """Reconstruct the dense ``(out, in)`` weight ``Q^{-1}(W_q)``."""
        out_features, in_features = self.original_shape
        grouped_values = dequantize_with_grid(self.codes, self.grid)
        padded = grouped_values.reshape(out_features, in_features + self.pad)
        return padded[:, :in_features].copy()

    def storage_bytes(self, metadata_bits: int = 16) -> float:
        """Packed-weight bytes plus scale/zero-point metadata bytes."""
        weight_bytes = self.codes.size * self.bits / 8.0
        return weight_bytes + self.grid.metadata_bytes(metadata_bits)


class MatrixQuantizer(Protocol):
    """Anything that can quantize one dense weight matrix."""

    bits: int
    group_size: int

    def quantize(self, weight: np.ndarray, **kwargs) -> QuantizedMatrix:  # pragma: no cover
        ...

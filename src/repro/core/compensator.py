"""Low-rank compensators: truncated-SVD residual reconstruction.

A compensator approximates the quantization residual ``E = W - Q^{-1}(W_q)``
with a rank-``r`` factorization ``U V`` (``U: m x r``, ``V: r x n``) obtained
from the truncated SVD, the Frobenius-optimal choice by the
Eckart–Young–Mirsky theorem (paper §3.2.3, Eqs. 11–12).  The singular values
are split symmetrically between the two factors
(``U = Û Σ^{1/2}``, ``V = Σ^{1/2} V̂``), matching the paper.

Compensators can themselves be quantized (INT8 or INT3, paper §3.2.6); the
:class:`LowRankCompensator` tracks both the float factors used during the
iterative optimization and the quantized deployment form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import svds

from ..quant.symmetric import SymmetricQuantizedTensor, quantize_symmetric

__all__ = ["truncated_svd_factors", "LowRankCompensator", "compensator_memory_bytes"]


def truncated_svd_factors(residual: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-``r`` factors ``(U, V)`` with ``U V`` the best rank-r approximation.

    Uses a dense SVD for small matrices and ARPACK (``scipy.sparse.linalg.svds``)
    when the requested rank is much smaller than the matrix — the same role
    ``torch.svd_lowrank`` plays in the paper's implementation.  Both paths
    are deterministic: ARPACK starts from a fixed vector, never from global
    random state.
    """
    residual = np.asarray(residual, dtype=np.float64)
    if residual.ndim != 2:
        raise ValueError(f"expected a 2-D residual, got shape {residual.shape}")
    m, n = residual.shape
    max_rank = min(m, n)
    if rank <= 0:
        return np.zeros((m, 0)), np.zeros((0, n))
    rank = min(rank, max_rank)

    use_sparse = max_rank > 256 and rank < max_rank // 4
    if use_sparse:
        # Without a start vector ARPACK draws one from numpy's global RNG;
        # a fixed one makes the factors a function of the residual alone.
        v0 = np.random.default_rng(0).standard_normal(max_rank)
        U_hat, S, Vt_hat = svds(residual, k=rank, v0=v0)
        # svds returns ascending singular values; flip to descending.
        order = np.argsort(-S)
        U_hat, S, Vt_hat = U_hat[:, order], S[order], Vt_hat[order]
    else:
        U_full, S_full, Vt_full = np.linalg.svd(residual, full_matrices=False)
        U_hat, S, Vt_hat = U_full[:, :rank], S_full[:rank], Vt_full[:rank]

    sqrt_s = np.sqrt(S)
    U = U_hat * sqrt_s[None, :]
    V = sqrt_s[:, None] * Vt_hat
    return U, V


def compensator_memory_bytes(
    shape: tuple[int, int],
    rank: int,
    bits: int = 3,
    group_size: int = 64,
    metadata_bits: int = 16,
) -> float:
    """Deployment memory of a rank-``r`` compensator for an ``(m, n)`` weight."""
    if rank <= 0:
        return 0.0
    m, n = shape
    elements = rank * (m + n)
    code_bytes = elements * bits / 8.0
    scale_bytes = np.ceil(elements / group_size) * metadata_bits / 8.0
    return float(code_bytes + scale_bytes)


@dataclass
class LowRankCompensator:
    """A (possibly quantized) low-rank residual compensator for one weight."""

    U: np.ndarray
    V: np.ndarray
    bits: int | None = None          # None => kept in FP16
    group_size: int = 64
    U_quantized: SymmetricQuantizedTensor | None = None
    V_quantized: SymmetricQuantizedTensor | None = None

    @classmethod
    def from_residual(cls, residual: np.ndarray, rank: int, group_size: int = 64) -> "LowRankCompensator":
        U, V = truncated_svd_factors(residual, rank)
        return cls(U=U, V=V, group_size=group_size)

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    def correction(self) -> np.ndarray:
        """The dense correction ``U V`` currently represented (deployment form)."""
        if self.rank == 0:
            return np.zeros((self.U.shape[0], self.V.shape[1]))
        U_dep, V_dep = self.deployment_factors()
        return U_dep @ V_dep

    def quantize(self, bits: int = 3, group_size: int | None = None) -> "LowRankCompensator":
        """Quantize both factors symmetrically (paper Eq. 15); returns ``self``.

        Quantization groups never straddle singular directions: ``U`` is
        quantized along its columns (each column scales like ``sqrt(sigma_i)``
        and has its own magnitude) and ``V`` along its rows, which keeps the
        per-group dynamic range small and the INT3 compensator faithful.
        """
        gs = group_size or self.group_size
        self.bits = bits
        self.group_size = gs
        if self.rank > 0:
            self.U_quantized = quantize_symmetric(self.U.T, bits=bits, group_size=gs)
            self.V_quantized = quantize_symmetric(self.V, bits=bits, group_size=gs)
        return self

    def deployment_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The (de-quantized, if applicable) factors used at inference time."""
        if self.rank == 0:
            return self.U, self.V
        if self.U_quantized is not None and self.V_quantized is not None:
            return self.U_quantized.dequantize().T, self.V_quantized.dequantize()
        return self.U, self.V

    def memory_bytes(self, metadata_bits: int = 16) -> float:
        """Deployment memory (packed codes + scales, or FP16 if unquantized)."""
        if self.rank == 0:
            return 0.0
        if self.U_quantized is not None and self.V_quantized is not None:
            return self.U_quantized.storage_bytes(metadata_bits) + self.V_quantized.storage_bytes(
                metadata_bits
            )
        return (self.U.size + self.V.size) * 16 / 8.0

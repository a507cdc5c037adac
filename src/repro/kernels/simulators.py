"""Kernel performance simulators for the paper's backend comparison.

Each simulator predicts the latency of one mixed-precision GEMM
``y[m, n] = x[m, k] @ W_dq[k, n]`` on the modeled A100, decomposed into

* **memory time** — streaming the packed weight, the group metadata, the
  activations and the output over HBM;
* **compute time** — the Tensor-Core (or CUDA-core) MAC work;
* **dequant time** — the INT-to-FP16 conversion arithmetic, whose cost per
  element depends on whether the kernel uses MiLo's binary-manipulation path
  or a naive type cast;
* **sync time** — global-reduction synchronization between thread blocks
  along the reduction dimension (a function of the tile shape), plus extra
  passes for backends that cannot fuse asymmetric zero-point handling;
* **launch overhead** and wave-quantization effects.

Backends modeled (paper §4.3):

=========================  =====================================================
Simulator                  Corresponds to
=========================  =====================================================
:class:`MiLoKernelSim`     MiLo W3A16 fused kernel (symmetric or asymmetric),
                           with ablation switches for async load, MiLo Dequant
                           and MoE tile tuning (Fig. 10).
:class:`MarlinKernelSim`   MARLIN W4A16 symmetric kernel (group size 128).
:class:`GPTQ3bitKernelSim` GPTQ's W3A16 GeMV kernel (batch size 1 only).
:class:`DequantCutlassSim` Unfused MiLo Dequant followed by a CUTLASS FP16 GEMM.
:class:`FP16KernelSim`     Plain FP16 (PyTorch / cuBLAS) GEMM.
=========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import A100_40GB, DeviceSpec
from .tiles import TileShape, choose_tile_shape, global_reduction_splits

__all__ = [
    "GemmShape",
    "GemmCost",
    "KernelSimulator",
    "MiLoKernelSim",
    "MarlinKernelSim",
    "GPTQ3bitKernelSim",
    "DequantCutlassSim",
    "FP16KernelSim",
    "UnsupportedBatchError",
    "default_backends",
]

#: FP16 element size in bytes.
_FP16 = 2


class UnsupportedBatchError(RuntimeError):
    """Raised when a kernel does not support the requested batch size."""


@dataclass(frozen=True)
class GemmShape:
    """Problem size of a weight-only-quantized GEMM."""

    m: int  # batch (rows of the activation)
    k: int  # reduction dimension (weight input features)
    n: int  # output dimension (weight output features)

    def __post_init__(self) -> None:
        if self.m <= 0 or self.k <= 0 or self.n <= 0:
            raise ValueError(f"invalid GEMM shape {self}")

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.k * self.n


@dataclass
class GemmCost:
    """Latency breakdown (seconds) of one GEMM on the modeled device."""

    shape: GemmShape
    memory_time: float
    compute_time: float
    dequant_time: float
    sync_time: float
    overhead_time: float
    overlapped: bool
    weight_bytes: float
    total_bytes: float

    @property
    def total(self) -> float:
        if self.overlapped:
            # Asynchronous copies overlap weight streaming with compute +
            # dequant; the longer of the two pipelines dominates.
            core = max(self.memory_time, self.compute_time + self.dequant_time)
        else:
            core = self.memory_time + self.compute_time + self.dequant_time
        return core + self.sync_time + self.overhead_time

    @property
    def tflops(self) -> float:
        return self.shape.flops / self.total / 1e12

    @property
    def effective_bandwidth_gbs(self) -> float:
        return self.total_bytes / self.total / 1e9


@dataclass
class KernelSimulator:
    """Base class with the shared roofline machinery."""

    name: str = "base"
    bits: float = 16
    group_size: int = 64
    symmetric: bool = True
    asymmetric_metadata: bool = False
    fused: bool = True
    async_load: bool = True
    dequant_ops_per_element: float = 0.0
    uses_tensor_cores: bool = True
    tile_tuning: bool = False
    fixed_tile: TileShape = field(default_factory=lambda: TileShape(128, 128))
    max_batch: int | None = None
    #: Fraction of the device's achievable bandwidth this kernel's memory
    #: pipeline reaches (well-tuned kernels like MARLIN sit near 1.0).
    bandwidth_factor: float = 1.0
    device: DeviceSpec = A100_40GB
    #: Memoized :meth:`gemm_cost` results keyed by GEMM shape.  The serving
    #: engine re-evaluates the same shapes with a batch dimension that varies
    #: iteration to iteration, so costs for each distinct batch size are
    #: computed once per kernel instance.  Safe because simulator parameters
    #: are fixed after construction.
    _cost_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: Memoized :meth:`_tiling` results keyed by ``(k, n)``: the split-K
    #: factor and the wave penalty do not depend on the batch, so every
    #: :meth:`gemm_cost` miss on a known weight shape reuses them.
    _tiling_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- pieces ----------------------------------------------------------------
    def supports_batch(self, m: int) -> bool:
        return self.max_batch is None or m <= self.max_batch

    def weight_bytes(self, shape: GemmShape) -> float:
        codes = shape.k * shape.n * self.bits / 8.0
        if self.bits >= 16:
            return codes
        groups = shape.n * (shape.k / self.group_size)
        entries = 2 if self.asymmetric_metadata else 1
        return codes + groups * entries * _FP16

    def io_bytes(self, shape: GemmShape) -> float:
        activations = shape.m * shape.k * _FP16
        output = shape.m * shape.n * _FP16
        return self.weight_bytes(shape) + activations + output

    def tile_for(self, shape: GemmShape) -> TileShape:
        if self.tile_tuning:
            return choose_tile_shape(shape.k, shape.n, num_sms=self.device.num_sms)
        return self.fixed_tile

    @property
    def _bandwidth(self) -> float:
        return self.device.effective_bandwidth * self.bandwidth_factor

    def _memory_time(self, total_bytes: float) -> float:
        return total_bytes / self._bandwidth

    def _compute_time(self, shape: GemmShape) -> float:
        if self.uses_tensor_cores:
            rate = self.device.tensor_core_flops * self.device.tensor_core_efficiency(shape.m)
        else:
            rate = self.device.cuda_core_flops * 0.5
        base = shape.flops / rate
        return base * self._tiling(shape)[1]

    def _tiling(self, shape: GemmShape) -> tuple[int, float]:
        """Split-K factor and wave-quantization penalty of ``shape``'s
        weight, memoized per ``(k, n)``."""
        key = (shape.k, shape.n)
        tiling = self._tiling_cache.get(key)
        if tiling is None:
            tile = self.tile_for(shape)
            num_sms = self.device.num_sms
            splits = global_reduction_splits(shape.k, shape.n, tile, num_sms=num_sms)
            # Extra factor from partially-filled waves of thread blocks.
            blocks = max(1, -(-shape.n // tile.tile_n)) * splits
            waves = max(1, -(-blocks // num_sms))
            full_blocks = waves * num_sms
            penalty = 1.0 + 0.15 * (full_blocks - blocks) / full_blocks
            tiling = self._tiling_cache[key] = (splits, penalty)
        return tiling

    def _dequant_time(self, shape: GemmShape) -> float:
        if self.dequant_ops_per_element <= 0:
            return 0.0
        ops = shape.k * shape.n * self.dequant_ops_per_element
        # Conversion arithmetic competes with the address/pipeline work of the
        # main loop, so it achieves roughly half the CUDA-core peak.
        return ops / (0.5 * self.device.cuda_core_flops)

    def _sync_time(self, shape: GemmShape) -> float:
        splits = self._tiling(shape)[0]
        if splits <= 1:
            return 0.0
        # Each extra split writes and re-reads FP32 partial sums and pays one
        # global barrier.
        partial_bytes = (splits - 1) * shape.m * shape.n * 4 * 2
        return partial_bytes / self._bandwidth + (splits - 1) * self.device.global_sync_latency

    def _extra_passes_time(self, shape: GemmShape) -> float:
        """Extra kernel passes some backends need (overridden)."""
        return 0.0

    # -- public API --------------------------------------------------------------
    def gemm_cost(self, shape: GemmShape) -> GemmCost:
        if not self.supports_batch(shape.m):
            raise UnsupportedBatchError(
                f"{self.name} supports batch <= {self.max_batch}, got {shape.m}"
            )
        cached = self._cost_cache.get(shape)
        if cached is not None:
            return cached
        total_bytes = self.io_bytes(shape)
        memory_time = self._memory_time(total_bytes)
        compute_time = self._compute_time(shape)
        dequant_time = self._dequant_time(shape)
        sync_time = self._sync_time(shape)
        overhead = self.device.kernel_launch_overhead + self._extra_passes_time(shape)
        cost = GemmCost(
            shape=shape,
            memory_time=memory_time,
            compute_time=compute_time,
            dequant_time=dequant_time,
            sync_time=sync_time,
            overhead_time=overhead,
            overlapped=self.async_load,
            weight_bytes=self.weight_bytes(shape),
            total_bytes=total_bytes,
        )
        self._cost_cache[shape] = cost
        return cost

    def mlp_cost(self, ffn_shapes: dict[str, tuple[int, int]], batch: int) -> list[GemmCost]:
        """Costs for every projection of one expert MLP (Appendix C shapes)."""
        return [
            self.gemm_cost(GemmShape(m=batch, k=k, n=n)) for k, n in ffn_shapes.values()
        ]

    def mlp_latency(self, ffn_shapes: dict[str, tuple[int, int]], batch: int) -> float:
        return sum(c.total for c in self.mlp_cost(ffn_shapes, batch))

    def mlp_tflops(self, ffn_shapes: dict[str, tuple[int, int]], batch: int) -> float:
        costs = self.mlp_cost(ffn_shapes, batch)
        total_flops = sum(c.shape.flops for c in costs)
        total_time = sum(c.total for c in costs)
        return total_flops / total_time / 1e12


# ---------------------------------------------------------------------------
# Concrete backends
# ---------------------------------------------------------------------------
class MiLoKernelSim(KernelSimulator):
    """The paper's fused W3A16 kernel, with Fig. 10 ablation switches."""

    def __init__(
        self,
        symmetric: bool = True,
        async_load: bool = True,
        milo_dequant: bool = True,
        tile_tuning: bool = True,
        device: DeviceSpec = A100_40GB,
    ) -> None:
        super().__init__(
            name=f"milo-{'sym' if symmetric else 'asym'}",
            bits=3,
            group_size=64,
            symmetric=symmetric,
            asymmetric_metadata=not symmetric,
            fused=True,
            async_load=async_load,
            # The binary-manipulation path converts two codes per instruction;
            # a naive cast chain costs an order of magnitude more ALU work, and
            # the asymmetric path adds one fused multiply-add per element.
            dequant_ops_per_element=(1.0 if milo_dequant else 12.0) + (0.0 if symmetric else 0.5),
            uses_tensor_cores=True,
            tile_tuning=tile_tuning,
            bandwidth_factor=0.95,
            device=device,
        )
        self.milo_dequant = milo_dequant


class MarlinKernelSim(KernelSimulator):
    """MARLIN W4A16 symmetric kernel (group size 128)."""

    def __init__(self, handle_asymmetric_model: bool = False, device: DeviceSpec = A100_40GB) -> None:
        super().__init__(
            name="marlin",
            bits=4,
            group_size=128,
            symmetric=True,
            asymmetric_metadata=False,
            fused=True,
            async_load=True,
            dequant_ops_per_element=1.0,
            uses_tensor_cores=True,
            tile_tuning=False,
            fixed_tile=TileShape(128, 128),
            bandwidth_factor=1.0,
            device=device,
        )
        #: When serving an asymmetrically-quantized model (the MiLo algorithm's
        #: preferred setting), MARLIN cannot fuse the zero-point correction and
        #: needs an extra elementwise pass over the output (paper §4.3.1).
        self.handle_asymmetric_model = handle_asymmetric_model

    def _extra_passes_time(self, shape: GemmShape) -> float:
        if not self.handle_asymmetric_model:
            return 0.0
        correction_bytes = 2 * shape.m * shape.n * _FP16 + shape.n * _FP16
        return correction_bytes / self.device.effective_bandwidth + self.device.kernel_launch_overhead


class GPTQ3bitKernelSim(KernelSimulator):
    """GPTQ's W3A16 GeMV kernel: per-channel asymmetric, batch size 1 only."""

    def __init__(self, device: DeviceSpec = A100_40GB) -> None:
        super().__init__(
            name="gptq3bit",
            bits=3,
            group_size=64,
            symmetric=False,
            asymmetric_metadata=True,
            fused=True,
            # The GeMV's trivial per-row dot products hide entirely behind the
            # weight streaming, so the pipeline behaves as overlapped.
            async_load=True,
            dequant_ops_per_element=2.0,
            uses_tensor_cores=False,
            tile_tuning=False,
            max_batch=1,
            bandwidth_factor=0.95,
            device=device,
        )

    def weight_bytes(self, shape: GemmShape) -> float:
        # Per-channel (not per-group) scale and zero: one pair per output column.
        codes = shape.k * shape.n * self.bits / 8.0
        return codes + shape.n * 2 * _FP16

    def _sync_time(self, shape: GemmShape) -> float:
        # GeMV partial sums are combined with atomics; no split-K barrier.
        return 0.0


class DequantCutlassSim(KernelSimulator):
    """Unfused pipeline: MiLo Dequant kernel, then a CUTLASS FP16 GEMM.

    The de-quantized FP16 weight makes a round trip through global memory, so
    the weight is read once at 3 bits, written once at 16 bits, and read again
    at 16 bits by the GEMM — the traffic penalty that motivates fusion.
    """

    def __init__(self, device: DeviceSpec = A100_40GB) -> None:
        super().__init__(
            name="milo-dequant+cutlass",
            bits=3,
            group_size=64,
            symmetric=True,
            asymmetric_metadata=False,
            fused=False,
            async_load=False,
            dequant_ops_per_element=1.0,
            uses_tensor_cores=True,
            tile_tuning=False,
            bandwidth_factor=0.9,
            device=device,
        )

    def io_bytes(self, shape: GemmShape) -> float:
        packed = self.weight_bytes(shape)
        fp16_weight = shape.k * shape.n * _FP16
        activations = shape.m * shape.k * _FP16
        output = shape.m * shape.n * _FP16
        # dequant kernel: read packed, write FP16; GEMM kernel: read FP16.
        return packed + 2 * fp16_weight + activations + output

    def _extra_passes_time(self, shape: GemmShape) -> float:
        # Second kernel launch for the GEMM.
        return self.device.kernel_launch_overhead


class FP16KernelSim(KernelSimulator):
    """Un-quantized FP16 GEMM (PyTorch / cuBLAS)."""

    def __init__(self, device: DeviceSpec = A100_40GB) -> None:
        super().__init__(
            name="fp16",
            bits=16,
            group_size=1,
            symmetric=True,
            fused=True,
            async_load=True,
            dequant_ops_per_element=0.0,
            uses_tensor_cores=True,
            tile_tuning=False,
            device=device,
        )


def default_backends(asymmetric_model: bool = False) -> dict[str, KernelSimulator]:
    """The backend line-up of Fig. 9, keyed by display name."""
    return {
        "MiLo Dequant + CUTLASS": DequantCutlassSim(),
        "GPTQ3bit Kernel": GPTQ3bitKernelSim(),
        "MARLIN Kernel": MarlinKernelSim(handle_asymmetric_model=asymmetric_model),
        "MiLo Kernel (sym)": MiLoKernelSim(symmetric=True),
        "MiLo Kernel (asym)": MiLoKernelSim(symmetric=False),
    }

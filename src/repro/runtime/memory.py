"""Full-scale deployment memory accounting.

The mini models run the algorithms; this module answers the *deployment*
questions the paper's tables pose about the full-size checkpoints:

* how many GB does a W3A16 / W4A16 model take with group-size-64 metadata
  (the "Memory" column of Table 3, e.g. 20.5 GB for INT3 Mixtral-8x7B)?
* how much extra memory does a given compensator strategy add (MiLo-s1 adds
  ~0.3 GB to Mixtral)?
* does a backend fit in a 40 GB A100 at all (the PyTorch FP16 row of
  Table 7 reports OOM because the ~90 GB model does not)?

The inventory enumerates the quantizable weight matrices of a
:class:`~repro.models.registry.FullModelSpec` (attention projections, routed
experts, shared experts) and treats everything else (embeddings, norms,
router gates, LM head) as kept in FP16.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.compensator import compensator_memory_bytes
from ..core.strategies import PAPER_STRATEGIES, StrategySpec
from ..models.registry import FullModelSpec

__all__ = [
    "WeightShapeInventory",
    "build_inventory",
    "quantizable_params",
    "quantized_model_memory_gb",
    "strategy_compensator_gb",
    "fp16_model_memory_gb",
]

_GB = 1024**3
_FP16_BYTES = 2


#: A category of weights as ``(repeat, shapes)`` runs: the category is each
#: run's ``shapes`` list repeated ``repeat`` times, run after run.
_Runs = list[tuple[int, list[tuple[int, int]]]]


@dataclass
class WeightShapeInventory:
    """Shapes (and counts) of the quantizable weights of a full-size model."""

    spec: FullModelSpec
    attention_shapes: list[tuple[int, int]]
    expert_shapes: list[tuple[int, int]]          # one entry per routed-expert matrix
    shared_expert_shapes: list[tuple[int, int]]   # always-activated FFN matrices

    @property
    def quantizable_params(self) -> float:
        total = 0.0
        for shapes in (self.attention_shapes, self.expert_shapes, self.shared_expert_shapes):
            total += sum(m * n for m, n in shapes)
        return total

    @property
    def other_params(self) -> float:
        """Parameters kept in FP16 (embeddings, norms, gates, LM head)."""
        return max(0.0, self.spec.params_billions * 1e9 - self.quantizable_params)


def _weight_runs(spec: FullModelSpec) -> tuple[_Runs, _Runs, _Runs]:
    """Attention, routed-expert and shared-expert weights of ``spec`` as runs.

    Attention is approximated as four ``hidden x hidden`` projections per
    layer (grouped-query models are slightly smaller; the error is ~1–2% of
    the total footprint).  Expert / shared-expert FFNs use the exact GEMM
    shapes from Appendix C when available.
    """
    h = spec.hidden_size
    attention: _Runs = [(4 * spec.num_layers, [(h, h)])]

    # Routed experts use the per-expert intermediate size (fine-grained experts
    # are small); the Appendix C kernel shapes describe the *dense/shared* FFN
    # of DeepSeek and are not per-routed-expert.
    i = spec.intermediate_size
    expert_matrix_shapes = [(i, h), (h, i), (i, h)]

    moe_layers = spec.num_layers if spec.num_shared_experts == 0 else spec.num_layers - 1
    experts: _Runs = [(moe_layers * spec.num_experts, expert_matrix_shapes)]

    shared: _Runs = []
    if spec.num_shared_experts:
        shared.append((moe_layers * spec.num_shared_experts, expert_matrix_shapes))
        # Dense first-layer FFN (DeepSeek): roughly the size of the shared experts
        # scaled up to a standard dense FFN.
        dense_i = spec.intermediate_size * 8
        shared.append((1, [(dense_i, h), (h, dense_i), (dense_i, h)]))
    return attention, experts, shared


def build_inventory(spec: FullModelSpec) -> WeightShapeInventory:
    """Enumerate weight shapes for a full-size model spec (see :func:`_weight_runs`)."""
    attention, experts, shared = (
        [shape for repeat, shapes in runs for _ in range(repeat) for shape in shapes]
        for runs in _weight_runs(spec)
    )
    return WeightShapeInventory(
        spec=spec,
        attention_shapes=attention,
        expert_shapes=experts,
        shared_expert_shapes=shared,
    )


def quantizable_params(spec: FullModelSpec) -> float:
    """``build_inventory(spec).quantizable_params`` without enumerating the shapes.

    Each category's count is an exact integer either way, so summing
    ``repeat * m * n`` per run and adding the categories to the float total in
    the same order gives the same float bit for bit.  The serving cost model
    reaches this through every ``step_latency`` memory check.
    """
    total = 0.0
    for runs in _weight_runs(spec):
        total += sum(repeat * m * n for repeat, shapes in runs for m, n in shapes)
    return total


def fp16_model_memory_gb(spec: FullModelSpec) -> float:
    """FP16 footprint of the full model (what needs ~90 GB for Mixtral)."""
    return spec.params_billions * 1e9 * _FP16_BYTES / _GB


def quantized_model_memory_gb(
    spec: FullModelSpec,
    bits: int = 3,
    group_size: int = 64,
    asymmetric: bool = True,
    metadata_bits: int = 16,
) -> float:
    """Weight memory of the quantized model without compensators (Table 3 column)."""
    qparams = quantizable_params(spec)
    entries = 2 if asymmetric else 1
    code_bytes = qparams * bits / 8.0
    metadata_bytes = qparams / group_size * entries * metadata_bits / 8.0
    other_bytes = max(0.0, spec.params_billions * 1e9 - qparams) * _FP16_BYTES
    return (code_bytes + metadata_bytes + other_bytes) / _GB


def strategy_compensator_gb(
    spec: FullModelSpec,
    strategy: StrategySpec | str,
    compensator_bits: int = 3,
    group_size: int = 64,
) -> float:
    """Extra memory a paper rank strategy adds at full scale.

    Dense ranks apply to the attention and shared-expert matrices; the
    Kurtosis / Frequency components average to their nominal rank over the
    routed experts, so the memory they add equals a uniform assignment of the
    same average (rank re-allocation is memory-neutral by construction).
    """
    if isinstance(strategy, str):
        strategy = PAPER_STRATEGIES[strategy]
    inventory = build_inventory(spec)
    total = 0.0
    if strategy.dense_rank:
        for shape in inventory.attention_shapes + inventory.shared_expert_shapes:
            total += compensator_memory_bytes(shape, strategy.dense_rank, compensator_bits, group_size)
    sparse_rank = strategy.kurtosis_rank + strategy.frequency_rank
    if sparse_rank:
        for shape in inventory.expert_shapes:
            total += compensator_memory_bytes(shape, sparse_rank, compensator_bits, group_size)
    return total / _GB

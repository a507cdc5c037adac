"""The serving engine's iteration cost model, over its *pools × layers*.

A colocated engine is one pool spanning every device, priced as one
whole-model layer; a disaggregated engine is two concurrent pools (prefill,
decode), each splitting its own token share by its own placement; the
``--overlap`` engine is one pool of ``num_layers`` per-layer placements
combined by :func:`overlap_step_seconds`.  Within a pool each device runs its
experts' share of the token load (split by routing-frequency mass, so skew
makes stragglers) and dispatches routed tokens whose home device is not the
expert's.  One device has every token at home, so its step is exactly the
backend's Table 7 step latency.  The engine prices each loop turn once,
and the stretch of iterations it advances, the report totals and the
tracer all read that one memoized :class:`IterationCost` record.

The layered model splits a token count over all layers at once: one
row-wise largest-remainder pass (:func:`~repro.serving.cluster.split_tokens_rows`)
over the ``layers x devices`` mass matrix, one gather of per-load latencies,
then per-layer and per-device reductions.  Every float sum among those runs
sequentially in index order — over devices within a layer, over layers per
device — so the arrays reproduce the scalar per-layer, per-device loop bit
for bit (``tests/serving/cost_reference.py`` keeps that loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
import numpy.typing as npt

from .cluster import ExpertPlacement, LayeredExpertPlacement, split_tokens, split_tokens_rows

if TYPE_CHECKING:
    from ..models.registry import FullModelSpec
    from ..runtime.backends import InferenceBackend

__all__ = ["CostModel", "IterationCost", "overlap_step_seconds"]

#: Entries a memo may hold before it is dropped: multi-device home mixes are
#: unbounded in principle, so the footprint stays flat on adversarial loads.
MEMO_LIMIT = 262144

#: Home-independent half of one layered iteration, memoized per
#: ``(tokens, placement_epoch)``: each layer's per-device token loads (an
#: int64 ``layers x devices`` array from one row-wise split), each layer's
#: critical-path compute (a float64 array), the summed max and loaded-mean
#: computes, and the per-device compute sums.  Those sums add in layer order
#: and each layer's loaded-device sum in device order, never pairwise.  A few
#: hundred distinct token counts occur per thousand requests.
LayerSplit = tuple[
    npt.NDArray[np.int64], npt.NDArray[np.float64], float, float, tuple[float, ...]
]


def overlap_step_seconds(
    compute_s: Iterable[float], comm_s: Iterable[float], efficiency: float
) -> tuple[float, float]:
    """Step time of one layered iteration with dispatch/combine overlap.

    ``compute_s[l]`` is layer ``l``'s critical-path compute and ``comm_s[l]``
    its all-to-all time; the communication of layer ``l`` overlaps with the
    compute of layer ``l + 1``, hiding ``efficiency * min(compute, comm)``
    seconds at each boundary.  Returns ``(step_seconds, hidden_seconds)``.

    At ``efficiency=0`` the result is bit-for-bit the serial layered cost
    ``sum_l (compute_s[l] + comm_s[l])`` — same accumulation order, and
    ``x - 0.0 == x`` exactly in IEEE arithmetic for the non-negative carries
    involved.  At ``efficiency=1`` every boundary degenerates to
    ``max(compute_l, comm_{l-1})``.  The hidden term never exceeds either
    operand, so the overlap step is monotonically <= the serial step for any
    efficiency in [0, 1] (``tests/serving/test_overlap.py`` pins both
    properties).
    """
    step = 0.0
    hidden_total = 0.0
    carry = 0.0  # the previous layer's combine still in flight
    for compute, comm in zip(compute_s, comm_s):
        hidden = efficiency * (compute if compute < carry else carry)
        step += compute + (carry - hidden)
        hidden_total += hidden
        carry = comm
    # The last layer's combine has no successor compute to hide under.
    step += carry
    return step, hidden_total


@dataclass(slots=True)
class IterationCost:
    """Price of one iteration over a given batch token load and home mix."""

    #: Clock advance of the iteration.
    step: float
    #: Slowest device's compute (summed over layers when layered).
    max_compute: float
    #: Mean compute over the devices that received token load — an idle
    #: device's 0.0 must not deflate the straggler baseline.
    mean_compute: float
    #: Remote-routed tokens as an exact integer: round-half-up of
    #: Σ_d load_d·experts_per_token·(tokens - home_d)/tokens per pool (the
    #: per-layer mean when layered).  The step keeps the exact float
    #: dispatch term; only this traffic accounting is integral.
    remote_tokens: int
    #: Compute seconds per global device, for trace events.
    per_device: tuple[float, ...]
    #: Layered only: communication hidden under the next layer's compute,
    #: and total (un-overlapped) communication; ``None`` when serial.
    hidden: float | None = None
    comm: float | None = None


class CostModel:
    """Memoized iteration prices of one engine's pools × layers."""

    __slots__ = (
        "backend", "spec", "pools", "layers", "epoch", "efficiency",
        "_alltoall_s", "_layer_rows", "_latency", "_mass", "_memo", "_splits",
    )

    def __init__(
        self,
        backend: InferenceBackend,
        spec: FullModelSpec,
        pools: Sequence[ExpertPlacement],
        layer_rows: list[tuple[float, ...]] | None = None,
    ) -> None:
        self.backend = backend
        self.spec = spec
        #: Placements of the pools, in global device order (device ``d`` of
        #: pool ``p`` is global device ``d + Σ_{q<p} devices_q``).
        self.pools = tuple(pools)
        #: Interconnect time to dispatch one routed token to a remote expert
        #: and combine its output back (hidden activations cross twice, FP16).
        self._alltoall_s = 2 * spec.hidden_size * 2 / backend.device.interconnect_bandwidth
        #: Pristine per-layer routing rows of the layered (overlap) model;
        #: ``None`` prices the serial whole-model layer.  Layering assumes
        #: one pool spanning every device.
        self._layer_rows = layer_rows
        self.layers: LayeredExpertPlacement | None = (
            LayeredExpertPlacement(self.pools[0], layer_rows) if layer_rows is not None else None
        )
        #: ``layers x devices`` array of :attr:`layers`' mass, which the
        #: layered split reads; refreshed whenever the layers change.
        self._mass: npt.NDArray[np.float64] | None = (
            np.array(self.layers.layer_mass) if self.layers is not None else None
        )
        #: Bumped at every dynamic re-placement: a re-packed layer changes
        #: every layered cost, so epochs must not share memo entries.
        self.epoch = 0
        #: Fraction of each layer boundary's hideable communication hidden.
        self.efficiency = min(1.0, max(0.0, backend.device.overlap_efficiency))
        #: Whole-model step latency per token load — pure in the load for a
        #: fixed backend/spec, so it persists across runs and re-placements.
        self._latency: dict[int, float] = {}
        self._memo: dict[tuple[int, tuple[int, ...] | None, int], IterationCost] = {}
        self._splits: dict[tuple[int, int], LayerSplit] = {}

    def reset(self) -> None:
        """Undo dynamic re-placement: pristine layers, epoch 0, fresh memos.

        Later runs must start from the same layout (run-to-run determinism),
        and epoch-tagged memo keys would otherwise alias across runs.
        """
        if self.epoch > 0:
            assert self._layer_rows is not None  # only the layered model re-places
            self.layers = LayeredExpertPlacement(self.pools[0], self._layer_rows)
            self._mass = np.array(self.layers.layer_mass)
            self.epoch = 0
            self._memo.clear()
            self._splits.clear()

    def repack(self, measured: Sequence[Sequence[float]], threshold: float) -> int:
        """Re-pack the layers whose routing drifted past ``threshold``.

        Returns the number of ``(layer, expert)`` shards that moved; any
        move opens a new placement epoch.
        """
        assert self.layers is not None, "re-placement needs the layered model"
        moved = self.layers.repack_drifted(measured, threshold)
        if moved:
            self._mass = np.array(self.layers.layer_mass)
            self.epoch += 1
        return moved

    def latency(self, load: int) -> float:
        """Whole-model step latency of one device running ``load`` token rows."""
        whole = self._latency.get(load)
        if whole is None:
            whole = self.backend.iteration_latency(self.spec, load).total
            self._latency[load] = whole
        return whole

    def cost(self, tokens: int, home_key: tuple[int, ...] | None = None) -> IterationCost:
        """Price of one iteration over ``tokens`` batch token rows.

        ``home_key`` holds the batch's token rows per home device (its KV
        location); ``None`` on a single device, where every token is home.
        """
        key = (tokens, home_key, self.epoch)
        entry = self._memo.get(key)
        if entry is None:
            homes = home_key or (tokens,)
            entry = (
                self._serial(tokens, homes) if self.layers is None
                else self._layered(tokens, homes)
            )
            if len(self._memo) >= MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = entry
        return entry

    def _serial(self, tokens: int, home_key: tuple[int, ...]) -> IterationCost:
        """Pools run concurrently: the step is the max over every device of
        its compute plus its dispatch of routed tokens to remote experts
        *within its pool*; a pool without tokens is idle this iteration."""
        experts_per_token = self.spec.experts_per_token
        alltoall_s = self._alltoall_s
        step = 0.0
        max_compute = 0.0
        compute_sum = 0.0
        loaded = 0
        remote_tokens = 0
        per_device: list[float] = []
        first = 0
        for placement in self.pools:
            mass = placement.device_mass
            pool_home = home_key[first:first + len(mass)]
            first += len(mass)
            pool_tokens = sum(pool_home)
            if not pool_tokens:
                per_device.extend([0.0] * len(mass))
                continue
            remote_numer = 0  # Σ_d load_d · ept · (pool_tokens - home_d), exact
            for d, load in enumerate(split_tokens(pool_tokens, mass)):
                if load:
                    compute = self.latency(load)
                    compute_sum += compute
                    loaded += 1
                else:
                    compute = 0.0
                remote_int = load * experts_per_token * (pool_tokens - pool_home[d])
                remote_numer += remote_int
                remote = remote_int / pool_tokens
                max_compute = max(max_compute, compute)
                step = max(step, compute + remote * alltoall_s)
                per_device.append(compute)
            remote_tokens += (2 * remote_numer + pool_tokens) // (2 * pool_tokens)
        mean_compute = compute_sum / loaded if loaded else 0.0
        return IterationCost(step, max_compute, mean_compute, remote_tokens, tuple(per_device))

    def _layered(self, tokens: int, home_key: tuple[int, ...]) -> IterationCost:
        """Each layer pays its max per-device compute; its all-to-all hides
        under the next layer's compute through :func:`overlap_step_seconds`.

        Only the dispatch terms depend on the home mix, so a miss reuses the
        ``(tokens, epoch)`` split of :meth:`layer_split`.
        """
        loads, computes, max_compute, mean_compute, per_device = self.layer_split(tokens)
        experts_per_token = self.spec.experts_per_token
        # remote[l, d] = load * experts_per_token * (tokens - home_d) is
        # exact in int64, and each quotient by ``tokens`` is the correctly
        # rounded double Python's int division gives (both operands stay
        # below 2**53), so every comm term is bit-identical to a scalar
        # per-device loop.
        remote = loads * np.array(
            [experts_per_token * (tokens - home) for home in home_key], dtype=np.int64
        )
        remote_numer = int(remote.sum())
        comms: list[float] = (
            (remote / tokens).max(axis=1) * (self._alltoall_s / self.spec.num_layers)
        ).tolist()
        step, hidden = overlap_step_seconds(computes.tolist(), comms, self.efficiency)
        comm = 0.0
        for c in comms:
            comm += c
        # Mean remote tokens per layer, round-half-up — comparable to the
        # serial model's once-per-iteration whole-model accounting.
        denom = self.spec.num_layers * tokens
        remote_tokens = (2 * remote_numer + denom) // (2 * denom)
        return IterationCost(
            step, max_compute, mean_compute, remote_tokens, per_device, hidden, comm
        )

    def layer_split(self, tokens: int) -> LayerSplit:
        """Memoized home-independent half of the layered cost (see
        :data:`LayerSplit`): per-device compute at a load is the whole-model
        latency divided by ``num_layers``, so layers that all split alike
        reproduce the serial device costs."""
        key = (tokens, self.epoch)
        entry = self._splits.get(key)
        if entry is not None:
            return entry
        assert self._mass is not None
        loads = split_tokens_rows(tokens, self._mass)
        # One latency per load (an inline memo hit; :meth:`latency` fills a
        # miss), gathered in row-major order; an idle device computes 0.0.
        latency = self._latency
        wholes = [
            (latency.get(load) or self.latency(load)) if load else 0.0
            for load in loads.ravel().tolist()
        ]
        compute = np.array(wholes).reshape(loads.shape) / self.spec.num_layers
        layer_max = compute.max(axis=1)
        # Float sums run in index order, device by device and layer by layer
        # (``ndarray.sum`` adds 8+ elements pairwise, which rounds
        # differently); an idle device's 0.0 leaves a sum unchanged.
        layer_sum = np.add.accumulate(compute, axis=1)[:, -1]
        # A layer without load has sum 0.0, so dividing it by 1 gives the 0.0
        # mean the loaded-device average defaults to.
        layer_mean = layer_sum / np.maximum(np.count_nonzero(loads, axis=1), 1)
        entry = (
            loads, layer_max,
            float(np.add.accumulate(layer_max)[-1]), float(np.add.accumulate(layer_mean)[-1]),
            tuple(np.add.accumulate(compute, axis=0)[-1].tolist()),
        )
        if len(self._splits) >= MEMO_LIMIT:
            self._splits.clear()
        self._splits[key] = entry
        return entry

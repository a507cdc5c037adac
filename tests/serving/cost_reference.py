"""Verbatim copies of the per-mode iteration cost functions the serving
engine used before one :class:`~repro.serving.cost.CostModel` priced every
mode — the reference that model is tested against.

``ReferenceCosts`` is a mixin for :class:`~repro.serving.ServingEngine`
subclasses: it carries the colocated (``_iteration_cost``), disaggregated
(``_iteration_cost_disagg``) and layered overlap (``_iteration_cost_overlap``
+ ``_overlap_split``) costs and the telemetry-only per-device split
(``_telemetry_per_device``), exactly as they were.
:meth:`ReferenceCosts.setup_reference_costs` gives them their own latency,
cost, split and telemetry memos and derives their constants independently;
they share only the engine's placements (inputs, not logic under test) and
read the layered placement and its epoch from the engine's cost model, so
re-placement is seen by both.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.serving.cluster import split_tokens
from repro.serving.engine import overlap_step_seconds

#: Home-independent half of one layered overlap iteration cost, memoized per
#: ``(tokens, placement_epoch)``: each layer's per-device token loads (an
#: int32 ``layers x devices`` array), each layer's critical-path compute (a
#: float64 array), the summed max and loaded-mean computes, and the
#: per-device compute sums trace events report.  Arrays keep the memo small:
#: a few hundred distinct token counts occur per thousand requests.
_OverlapSplit = tuple[np.ndarray, np.ndarray, float, float, tuple[float, ...]]


class ReferenceCosts:
    """The pre-``CostModel`` cost functions, verbatim (engine mixin)."""

    def setup_reference_costs(self) -> None:
        """Fresh memos and independently derived constants."""
        spec = self.spec
        backend = self.backend
        self._latency_cache: dict[int, float] = {}
        self._cost_cache: dict[object, tuple[Any, ...]] = {}
        self._split_cache: dict[tuple[int, int], _OverlapSplit] = {}
        self._telemetry_cost_cache: dict[object, tuple[float, ...]] = {}
        self._alltoall_s_per_token = (
            2 * spec.hidden_size * 2 / backend.device.interconnect_bandwidth
        )
        self._alltoall_s_per_layer_token = self._alltoall_s_per_token / spec.num_layers
        self._overlap_efficiency = min(
            1.0, max(0.0, backend.device.overlap_efficiency)
        )
        if self._disagg:
            self._prefill_placement, self._decode_placement = self.cost_model.pools

    @property
    def layered_placement(self):
        return self.cost_model.layers

    @property
    def _placement_epoch(self):
        return self.cost_model.epoch

    def _telemetry_per_device(
        self, tokens: int, home_key: tuple[int, ...]
    ) -> tuple[float, ...]:
        """Per-device compute seconds of one iteration, for trace events.

        Derived from the same memoized latencies the cost model reads, but
        kept in a separate telemetry-only memo: the report math's caches see
        the identical access pattern whether or not tracing is on.  The
        split depends only on the token count (device mass fixes the
        shares; ``home_key`` shifts communication, not compute), so the key
        is ``tokens``.  Under overlap the per-layer split memo the cost
        model already filled for this iteration holds the sums.
        """
        if self._overlap:
            return self._overlap_split(tokens)[4]
        pool_tokens: tuple[int, int] | None = None
        key: object
        if self._disagg:
            # Each pool splits its *own* token share by its own placement's
            # mass, so the split depends on the (prefill, decode) pool token
            # pair rather than the batch total.
            prefill = self.config.prefill_devices
            pool_tokens = (sum(home_key[:prefill]), sum(home_key[prefill:]))
            key = ("dg",) + pool_tokens
        else:
            key = tokens
        entry = self._telemetry_cost_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        backend = self.backend
        spec = self.spec
        if pool_tokens is not None:
            computes = []
            for placement, ptokens in zip(
                (self._prefill_placement, self._decode_placement), pool_tokens
            ):
                if not ptokens:
                    computes.extend([0.0] * len(placement.device_mass))
                    continue
                for load in split_tokens(ptokens, placement.device_mass):
                    if load:
                        compute = latency_cache.get(load)
                        if compute is None:
                            compute = backend.iteration_latency(spec, load).total
                            latency_cache[load] = compute
                        computes.append(compute)
                    else:
                        computes.append(0.0)
            entry = tuple(computes)
        else:
            computes = []
            for load in split_tokens(tokens, self.placement.device_mass):
                if load:
                    compute = latency_cache.get(load)
                    if compute is None:
                        compute = backend.iteration_latency(spec, load).total
                        latency_cache[load] = compute
                    computes.append(compute)
                else:
                    computes.append(0.0)
            entry = tuple(computes)
        if len(self._telemetry_cost_cache) >= 262144:
            self._telemetry_cost_cache.clear()
        self._telemetry_cost_cache[key] = entry
        return entry

    def _iteration_cost(
        self, tokens: int, home_key: tuple[int, ...] | None
    ) -> tuple[float, float, float, tuple[float, ...] | None]:
        """Memoized cost of one iteration over ``tokens`` batch token rows.

        The iteration costs the *max* over per-device costs: each device
        runs its resident experts' share of the token load (split by routing
        frequency mass — skew makes stragglers) plus the all-to-all dispatch
        of routed tokens whose home device is not the expert's.  One device
        degenerates to the whole batch at zero dispatch — the exact
        pre-sharding iteration latency.

        ``home_key`` is ``None`` on a single device (the cost depends only
        on the token count) and the tuple of per-device home token counts
        otherwise.  Returns ``(step, max_compute, mean_compute,
        remote_tokens)``: the clock advance, the slowest device's compute,
        the mean compute over devices that received load, and the
        iteration's total remote-routed token count as an *integer*
        (round-half-up of the exact rational Σ_d load_d·ept·(tokens -
        home_d)/tokens; ``None`` single-device) — everything the caller
        accumulates per iteration, so the memoized replay performs the
        identical float operations the un-memoized loop did.  The *step*
        math keeps the exact float remote term (the clock is pinned byte
        for byte by the goldens); only the traffic *accounting* is integral.
        """
        key = tokens if home_key is None else (tokens, home_key)
        entry = self._cost_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        if home_key is None:
            compute = latency_cache.get(tokens)
            if compute is None:
                compute = self.backend.iteration_latency(self.spec, tokens).total
                latency_cache[tokens] = compute
            entry = (compute, compute, compute, None)
        else:
            step = 0.0
            max_compute = 0.0
            iter_compute_s = 0.0
            iter_loaded = 0
            remote_numer = 0  # Σ_d load_d · ept · (tokens - home_d), exact int
            experts_per_token = self.spec.experts_per_token
            alltoall_s = self._alltoall_s_per_token
            for d, load in enumerate(split_tokens(tokens, self.placement.device_mass)):
                if load:
                    compute = latency_cache.get(load)
                    if compute is None:
                        compute = self.backend.iteration_latency(self.spec, load).total
                        latency_cache[load] = compute
                    # Straggler accounting covers only devices that received
                    # token load this iteration: `split_tokens` hands a
                    # low-mass device zero tokens in a small batch, and its
                    # 0.0 compute must not deflate the mean.
                    iter_compute_s += compute
                    iter_loaded += 1
                else:
                    compute = 0.0
                remote_int = load * experts_per_token * (tokens - home_key[d])
                remote_numer += remote_int
                remote = remote_int / tokens
                max_compute = max(max_compute, compute)
                step = max(step, compute + remote * alltoall_s)
            mean_compute = iter_compute_s / iter_loaded if iter_loaded else 0.0
            # Round-half-up of remote_numer / tokens: token counts are whole.
            remote_tokens = (2 * remote_numer + tokens) // (2 * tokens)
            entry = (step, max_compute, mean_compute, remote_tokens)
        if len(self._cost_cache) >= 262144:
            # Multi-device home mixes are unbounded in principle; keep the
            # memo's footprint flat on adversarial workloads.
            self._cost_cache.clear()
        self._cost_cache[key] = entry
        return entry

    def _iteration_cost_disagg(
        self, tokens: int, home_key: tuple[int, ...]
    ) -> tuple[float, float, float, int]:
        """Memoized cost of one disaggregated iteration.

        The prefill pool and the decode pool run *concurrently*: each pool
        splits its own token share (``home_key`` entries of its devices) by
        its own placement's mass, pays its own all-to-all for tokens routed
        to remote experts *within the pool*, and the iteration's step is the
        max over every device of both pools.  A pool with no tokens this
        iteration contributes nothing (its devices are idle).  Returns the
        same ``(step, max_compute, mean_compute, remote_tokens)`` tuple as
        :meth:`_iteration_cost`, with ``remote_tokens`` summed over pools
        (round-half-up per pool, exact-integer accounting end to end).

        Shares ``_cost_cache`` and the ``(tokens, home_key)`` key shape with
        the colocated cost — safe because one engine instance is either
        disaggregated or not for its whole lifetime.
        """
        key = (tokens, home_key)
        entry = self._cost_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        experts_per_token = self.spec.experts_per_token
        alltoall_s = self._alltoall_s_per_token
        prefill = self.config.prefill_devices
        step = 0.0
        max_compute = 0.0
        iter_compute_s = 0.0
        iter_loaded = 0
        remote_tokens = 0
        for placement, pool_home in (
            (self._prefill_placement, home_key[:prefill]),
            (self._decode_placement, home_key[prefill:]),
        ):
            pool_tokens = sum(pool_home)
            if not pool_tokens:
                continue
            remote_numer = 0
            for d, load in enumerate(split_tokens(pool_tokens, placement.device_mass)):
                if load:
                    compute = latency_cache.get(load)
                    if compute is None:
                        compute = self.backend.iteration_latency(self.spec, load).total
                        latency_cache[load] = compute
                    iter_compute_s += compute
                    iter_loaded += 1
                else:
                    compute = 0.0
                remote_int = load * experts_per_token * (pool_tokens - pool_home[d])
                remote_numer += remote_int
                remote = remote_int / pool_tokens
                max_compute = max(max_compute, compute)
                step = max(step, compute + remote * alltoall_s)
            remote_tokens += (2 * remote_numer + pool_tokens) // (2 * pool_tokens)
        mean_compute = iter_compute_s / iter_loaded if iter_loaded else 0.0
        entry = (step, max_compute, mean_compute, remote_tokens)
        if len(self._cost_cache) >= 262144:
            self._cost_cache.clear()
        self._cost_cache[key] = entry
        return entry

    def _iteration_cost_overlap(
        self, tokens: int, home_key: tuple[int, ...]
    ) -> tuple[float, float, float, int, float, float]:
        """Memoized layered cost of one iteration under the overlap model.

        Decomposes the whole-model iteration into ``num_layers`` MoE layers:
        layer ``l`` splits the batch by *its own* placement's device mass
        (Fig. 3 skew differs by layer), costs ``max_d compute_{l,d}`` on the
        critical path, and its all-to-all overlaps with layer ``l + 1``'s
        compute through :func:`overlap_step_seconds`.  Per-device compute at
        a given load is the whole-model latency divided by ``num_layers`` —
        so a layered run whose layers all split identically reproduces the
        serial device-loop costs exactly.

        Keyed by ``(tokens, home_key, placement_epoch)``: dynamic
        re-placement changes every layer cost, so epochs must not share memo
        entries.  A miss reuses the home-independent per-layer split of
        :meth:`_overlap_split` and recomputes only the dispatch terms.
        Returns ``(step, max_compute, mean_compute, remote_tokens, hidden_s,
        comm_s)`` — the serial tuple plus the iteration's hidden
        communication seconds and total (un-overlapped) communication
        seconds.
        """
        key = (tokens, home_key, self._placement_epoch)
        entry = self._cost_cache.get(key)
        if entry is not None:
            return entry
        loads, computes, max_compute_s, mean_compute_s, _ = self._overlap_split(tokens)
        experts_per_token = self.spec.experts_per_token
        # remote[l, d] = load * experts_per_token * (tokens - home_d) is
        # exact (the int32 loads widen to int64), and each quotient by
        # ``tokens`` is the correctly rounded double Python's int division
        # gives (both operands stay below 2**53), so every comm term is
        # bit-identical to the scalar per-device loop.
        remote = loads * np.array(
            [experts_per_token * (tokens - home) for home in home_key], dtype=np.int64
        )
        remote_numer = int(remote.sum())
        comms: list[float] = (
            (remote / tokens).max(axis=1) * self._alltoall_s_per_layer_token
        ).tolist()
        step, hidden_s = overlap_step_seconds(
            computes.tolist(), comms, self._overlap_efficiency
        )
        comm_s = 0.0
        for c in comms:
            comm_s += c
        # Mean remote tokens per layer, round-half-up — comparable to the
        # serial engine's once-per-iteration whole-model accounting.
        denom = self.spec.num_layers * tokens
        remote_tokens = (2 * remote_numer + denom) // (2 * denom)
        entry = (step, max_compute_s, mean_compute_s, remote_tokens, hidden_s, comm_s)
        if len(self._cost_cache) >= 262144:
            self._cost_cache.clear()
        self._cost_cache[key] = entry
        return entry

    def _overlap_split(self, tokens: int) -> _OverlapSplit:
        """Memoized home-independent half of the layered overlap cost.

        Each layer's per-device token split and compute depend only on the
        batch token count and the placement epoch, while the dispatch term
        also depends on the home mix; batches with equal token counts but
        different homes share this entry (see :data:`_OverlapSplit`).
        """
        key = (tokens, self._placement_epoch)
        entry = self._split_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        spec = self.spec
        backend = self.backend
        num_layers = spec.num_layers
        layer_loads: list[list[int]] = []
        computes: list[float] = []
        max_compute_s = 0.0
        mean_compute_s = 0.0
        per_device = [0.0] * len(self.device_group)
        for mass in self.layered_placement.layer_mass:
            layer_max = 0.0
            layer_sum = 0.0
            layer_loaded = 0
            loads = split_tokens(tokens, mass)
            for d, load in enumerate(loads):
                if load:
                    whole = latency_cache.get(load)
                    if whole is None:
                        whole = backend.iteration_latency(spec, load).total
                        latency_cache[load] = whole
                    compute = whole / num_layers
                    layer_sum += compute
                    layer_loaded += 1
                    if compute > layer_max:
                        layer_max = compute
                    per_device[d] += compute
            layer_loads.append(loads)
            computes.append(layer_max)
            max_compute_s += layer_max
            mean_compute_s += layer_sum / layer_loaded if layer_loaded else 0.0
        entry = (
            np.array(layer_loads, dtype=np.int32), np.array(computes),
            max_compute_s, mean_compute_s, tuple(per_device),
        )
        if len(self._split_cache) >= 262144:
            self._split_cache.clear()
        self._split_cache[key] = entry
        return entry


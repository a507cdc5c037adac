"""The engine loop that walked every running sequence on every iteration.

:class:`ReferenceEngine` is a verbatim copy of the per-iteration loop the
serving engine ran before decode progress became event-driven: it counts,
advances and capacity-checks every running sequence on every iteration
(its scheduler scans the whole batch for capacity and for finished
sequences, and grows each due sequence with its own
``blocks_deficit``/``grow`` visit, its decode
tracker tracks nothing), calls ``admit`` and ``ensure_capacity`` at every iteration
boundary, and never macro-steps.  It is priced by the per-mode cost
functions of ``cost_reference`` (the two overlap ones in their one-pass
form) rather than the engine's ``CostModel``.  The equivalence tests run
the engine against it and require byte-identical reports, trace streams
and metrics streams.
"""

from __future__ import annotations

from repro.serving import ContinuousBatchingScheduler, Request, ServingEngine
from repro.serving.cluster import split_tokens
from repro.serving.cost import IterationCost
from repro.serving.engine import RunTotals, overlap_step_seconds
from repro.serving.request import RequestState, Sequence
from repro.serving.scheduler import DecodeTracker

from cost_reference import ReferenceCosts


class WalkEverySequence(DecodeTracker):
    """Tracks no decode: every running sequence stays on the walked list."""

    __slots__ = ()

    def start(self, seq):
        self.walked.append(seq)


class PerSequenceCapacityWalk:
    """``ensure_capacity`` as it was before boundary growth was planned and
    granted in bulk, verbatim: every due sequence gets its own
    ``blocks_deficit`` → preemption → ``grow`` visit, in precedence order.
    Mixed into the reference schedulers so the engine's bulk grant is
    compared against an independent per-sequence oracle."""

    def ensure_capacity(self) -> list[Sequence]:
        if not self.allocation.grows or not self.running:
            return []
        if self.debug_checks:
            self._audit_writable_extents()
            self.decode.audit(self.running)
        due = self._capacity_due()
        if not due:
            return []
        preempted: list[Sequence] = []
        chunk = self.config.prefill_chunk
        for seq in sorted(due, key=self.policy.queue_key):
            if seq.state is not RequestState.RUNNING:
                continue  # already preempted at this boundary
            deficit = self.allocation.blocks_deficit(seq, chunk)
            home = seq.home_device
            while deficit > self.block_manager.free_blocks_on(home):
                candidates = [
                    s
                    for s in self.running
                    if s is not seq
                    and s.home_device == home
                    and self.policy.queue_key(s) > self.policy.queue_key(seq)
                ]
                victim = self.policy.select_victim(candidates, self.block_manager)
                if victim is None:
                    victim = seq  # tail of the batch: yield its own blocks
                self.preempt(victim)
                preempted.append(victim)
                if victim is seq:
                    deficit = 0
                    break
            if deficit > 0:
                self.allocation.grow(seq, deficit)
        self.decode.arm(due)  # the visits may have recorded new extents
        return preempted


class ReferenceScheduler(PerSequenceCapacityWalk, ContinuousBatchingScheduler):
    """The capacity walk's batch scan and per-sequence visits, and the
    eviction that scans the whole batch for finished sequences, verbatim."""

    def _capacity_due(self):
        return [
            seq
            for seq in self.running
            if seq.request.prompt_tokens + seq.generated_tokens >= seq.kv_writable_extent
        ]

    def evict_finished(self) -> list[Sequence]:
        """Remove finished sequences from the batch and free their KV blocks."""
        done: list[Sequence] = []
        still_running: list[Sequence] = []
        finished_state = RequestState.FINISHED
        for seq in self.running:
            (done if seq.state is finished_state else still_running).append(seq)
        tracker = self.decode
        if tracker.walked:
            # Walked sequences finish by advancing; tracked ones already
            # left the tracker at their finish event.
            tracker.walked = [s for s in tracker.walked if s.state is not finished_state]
        release = self.allocation.release
        tracer = self.tracer
        if tracer is None:
            for seq in done:
                release(seq)
        else:
            for seq in done:
                # Finish event first, then the KV free it causes.
                tracer.finish(seq)
                release(seq)
        self.finished.extend(done)
        # In-place so engine-held aliases of ``running`` stay live.
        self.running[:] = still_running
        return done


class ReferenceEngine(ReferenceCosts, ServingEngine):
    """Every run takes the per-iteration loop that walks the whole batch,
    priced by the per-mode cost functions of ``cost_reference`` (the two
    overlap ones in their one-pass form below), never by ``CostModel``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.setup_reference_costs()

    def make_scheduler(self):
        scheduler = super().make_scheduler()
        scheduler.__class__ = ReferenceScheduler
        scheduler.decode.__class__ = WalkEverySequence
        return scheduler

    def _run(self, pending, scheduler):
        (clock, iterations, total_tokens, peak_batch, peak_used_blocks,
         peak_shared_blocks, peak_used_per_device,
         straggler_max_s, straggler_mean_s, alltoall_tokens,
         hidden_comm_s, comm_total_s, migration_s, replacements,
         (handoffs, handoff_blocks, handoff_s, rebalances, rebalanced_blocks,
          rebalance_s, swap_in_s, recompute_equivalent_s),
         ) = self._walk_every_sequence(pending, scheduler)
        return RunTotals(
            peak_used_per_device, clock, iterations, total_tokens, peak_batch,
            peak_used_blocks, peak_shared_blocks, straggler_max_s,
            straggler_mean_s, alltoall_tokens, hidden_comm_s, comm_total_s,
            migration_s, replacements, handoffs, handoff_blocks, handoff_s,
            rebalances, rebalanced_blocks, rebalance_s, swap_in_s,
            recompute_equivalent_s,
        )

    def _telemetry_per_device(
        self, tokens: int, home_key: tuple[int, ...]
    ) -> tuple[float, ...]:
        """Per-device compute of one iteration, split afresh under overlap."""
        pool_tokens: tuple[int, int] | None = None
        if self._overlap:
            key: object = (tokens, self._placement_epoch)
        elif self._disagg:
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
        if self._overlap:
            num_layers = spec.num_layers
            per_device = [0.0] * len(self.device_group)
            for mass in self.layered_placement.layer_mass:
                for d, load in enumerate(split_tokens(tokens, mass)):
                    if load:
                        whole = latency_cache.get(load)
                        if whole is None:
                            whole = backend.iteration_latency(spec, load).total
                            latency_cache[load] = whole
                        per_device[d] += whole / num_layers
            entry = tuple(per_device)
        elif pool_tokens is not None:
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


    def _iteration_cost_overlap(
        self, tokens: int, home_key: tuple[int, ...]
    ) -> tuple[float, float, float, int, float, float]:
        """Layered overlap cost computed in one pass per ``(tokens, home)``."""
        key = (tokens, home_key, self._placement_epoch)
        entry = self._cost_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        spec = self.spec
        backend = self.backend
        num_layers = spec.num_layers
        experts_per_token = spec.experts_per_token
        alltoall_layer_s = self._alltoall_s_per_layer_token
        computes: list[float] = []
        comms: list[float] = []
        max_compute_s = 0.0
        mean_compute_s = 0.0
        remote_numer = 0
        for mass in self.layered_placement.layer_mass:
            layer_max = 0.0
            layer_sum = 0.0
            layer_loaded = 0
            layer_remote = 0.0
            for d, load in enumerate(split_tokens(tokens, mass)):
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
                remote_int = load * experts_per_token * (tokens - home_key[d])
                remote_numer += remote_int
                remote = remote_int / tokens
                if remote > layer_remote:
                    layer_remote = remote
            computes.append(layer_max)
            comms.append(layer_remote * alltoall_layer_s)
            max_compute_s += layer_max
            mean_compute_s += layer_sum / layer_loaded if layer_loaded else 0.0
        step, hidden_s = overlap_step_seconds(
            computes, comms, self._overlap_efficiency
        )
        comm_s = 0.0
        for c in comms:
            comm_s += c
        # Mean remote tokens per layer, round-half-up — comparable to the
        # serial engine's once-per-iteration whole-model accounting.
        denom = num_layers * tokens
        remote_tokens = (2 * remote_numer + denom) // (2 * denom)
        entry = (step, max_compute_s, mean_compute_s, remote_tokens, hidden_s, comm_s)
        if len(self._cost_cache) >= 262144:
            self._cost_cache.clear()
        self._cost_cache[key] = entry
        return entry


    def _walk_every_sequence(
        self, pending: list[Request], scheduler: ContinuousBatchingScheduler
    ) -> tuple:
        """The per-iteration loop that advances every running sequence
        (its trace events carry the cost as the tracer's record)."""
        clock = 0.0
        next_arrival = 0
        n_pending = len(pending)
        iterations = 0
        total_tokens = 0
        peak_batch = 0
        peak_used_blocks = 0
        peak_shared_blocks = 0
        num_devices = len(self.device_group)
        peak_used_per_device = [0] * num_devices
        straggler_max_s = 0.0
        straggler_mean_s = 0.0
        alltoall_tokens = 0
        hidden_comm_s = 0.0
        comm_total_s = 0.0
        migration_s = 0.0
        replacements = 0
        handoffs = 0
        handoff_blocks = 0
        handoff_s = 0.0
        rebalances = 0
        rebalanced_blocks = 0
        rebalance_s = 0.0
        swap_in_s = 0.0
        recompute_equivalent_s = 0.0
        chunk = scheduler.config.prefill_chunk
        grows = scheduler.allocation.grows
        multi = num_devices > 1
        overlap_mode = self._overlap
        disagg = self._disagg
        swap_mode = scheduler.config.preempt_mode == "swap"
        rebalance_pool = disagg and len(scheduler.decode_pool) > 1
        drift = self._drift if overlap_mode else None
        last_ckey = None
        block_manager = self.block_manager
        finished_state = RequestState.FINISHED
        tracer = self.tracer
        metrics = self.metrics
        #: Next due metrics sample time (``inf`` disables the clock compare).
        metrics_due = metrics.next_due if metrics is not None else float("inf")
        iter_t0 = 0.0
        iter_stall = 0.0
        #: ``block_manager.rises`` at the last peak sample.
        sampled_rises = -1

        while next_arrival < n_pending or scheduler.has_work:
            while next_arrival < n_pending and pending[next_arrival].arrival_time <= clock:
                scheduler.add_request(pending[next_arrival])
                next_arrival += 1
            if tracer is not None:
                # Preemption and KV events inside ensure_capacity/admit
                # timestamp with the tracer clock.
                tracer.now = clock
            if grows:
                # Running sequences secure the blocks their next token needs
                # (preempting the low-precedence tail if the pool is dry)
                # before any queued request may claim free blocks.
                scheduler.ensure_capacity()
            admitted = scheduler.admit(clock)
            if swap_mode and admitted:
                # Re-admitted swap victims restore their parked KV over the
                # host link before the batch may step; the stall is serial
                # (one PCIe link) and charged to the clock.
                for seq in admitted:
                    if seq.swapped_tokens:
                        blocks = block_manager.blocks_needed(seq.swapped_tokens)
                        stall = blocks * self._swap_s_per_block
                        resume_t0 = clock
                        clock += stall
                        swap_in_s += stall
                        # What discarding instead would have cost: one
                        # re-prefill pass over the swapped tokens.
                        lat = self._latency_cache.get(seq.swapped_tokens)
                        if lat is None:
                            lat = self.backend.iteration_latency(
                                self.spec, seq.swapped_tokens
                            ).total
                            self._latency_cache[seq.swapped_tokens] = lat
                        recompute_equivalent_s += lat
                        if tracer is not None:
                            tracer.swap_in(seq, resume_t0, clock, blocks, stall)
                            tracer.now = clock
                        seq.swapped_tokens = 0
            running = scheduler.running
            if not running:
                if next_arrival < n_pending:
                    # Idle: jump the clock to the next arrival.
                    clock = max(clock, pending[next_arrival].arrival_time)
                    continue
                break

            if multi:
                tokens = 0
                home_tokens = [0] * num_devices
                for seq in running:
                    t = seq.tokens_this_iteration(chunk)
                    tokens += t
                    home_tokens[seq.home_device] += t
                home_key = tuple(home_tokens)
                if overlap_mode:
                    (step, max_compute, mean_compute, remote_tokens,
                     hidden, comm) = self._iteration_cost_overlap(tokens, home_key)
                    hidden_comm_s += hidden
                    comm_total_s += comm
                elif disagg:
                    step, max_compute, mean_compute, remote_tokens = (
                        self._iteration_cost_disagg(tokens, home_key)
                    )
                else:
                    step, max_compute, mean_compute, remote_tokens = (
                        self._iteration_cost(tokens, home_key)
                    )
                alltoall_tokens += remote_tokens
                straggler_max_s += max_compute
                straggler_mean_s += mean_compute
            else:
                tokens = 0
                for seq in running:
                    tokens += seq.tokens_this_iteration(chunk)
                step = self._iteration_cost(tokens, None)[0]
            if tracer is not None:
                iter_t0 = clock  # float addition is not invertible
                if multi:
                    # The layout that prices this iteration, read before a
                    # re-placement below moves experts.
                    per_device = self._telemetry_per_device(tokens, home_key)
            clock += step
            iterations += 1
            total_tokens += tokens
            if drift is not None:
                # One observation per distinct batch composition — the fast
                # path's macro-stepped iterations repeat the same (tokens,
                # home) key and never observe, so the two loops agree.
                ckey = (tokens, home_key)
                if ckey != last_ckey:
                    last_ckey = ckey
                    stall = self._observe_routing(tokens, scheduler)
                    if stall:
                        clock += stall
                        migration_s += stall
                        replacements += 1
                        if tracer is not None:
                            iter_stall = stall
            batch = len(running)
            if tracer is not None:
                if multi:
                    if overlap_mode:
                        tracer.iteration(
                            iterations - 1, iter_t0, clock, tokens, batch,
                            IterationCost(
                                step, max_compute, mean_compute, remote_tokens,
                                per_device,
                                hidden, comm,
                            ),
                            stall=iter_stall,
                        )
                    else:
                        tracer.iteration(
                            iterations - 1, iter_t0, clock, tokens, batch,
                            IterationCost(
                                step, max_compute, mean_compute, remote_tokens,
                                per_device,
                            ),
                            stall=iter_stall,
                        )
                else:
                    tracer.iteration(iterations - 1, iter_t0, clock, tokens, batch)
                iter_stall = 0.0
                tracer.now = clock  # finish/KV-free events below carry it
            if metrics is not None and clock >= metrics_due:
                metrics_due = self._sample_metrics(
                    metrics, scheduler, clock, iterations, batch
                )
            if batch > peak_batch:
                peak_batch = batch
            rises = block_manager.rises
            if rises != sampled_rises:
                # Pool occupancy can only have risen since the last sample
                # if a block was taken or newly shared; otherwise no peak
                # can move and the aggregate reads are skipped.
                sampled_rises = rises
                used = block_manager.used_blocks
                if used > peak_used_blocks:
                    peak_used_blocks = used
                shared = block_manager.shared_blocks
                if shared > peak_shared_blocks:
                    peak_shared_blocks = shared
                if multi:
                    for d in range(num_devices):
                        u = block_manager.used_blocks_on(d)
                        if u > peak_used_per_device[d]:
                            peak_used_per_device[d] = u

            finished_any = False
            if disagg:
                # The walk additionally collects sequences whose prefill just
                # completed: their KV must leave the prefill pool before the
                # next iteration (first token already emitted — handoff
                # delays the second).
                handoff_ready: list[Sequence] | None = None
                for seq in running:
                    was_prefill = not seq.prefill_done
                    seq.advance(clock, chunk)
                    if seq.state is finished_state:
                        finished_any = True
                        if tracer is not None and was_prefill and seq.prefill_done:
                            tracer.first_token(seq, clock)
                    elif was_prefill and seq.prefill_done:
                        if tracer is not None:
                            tracer.first_token(seq, clock)
                        if handoff_ready is None:
                            handoff_ready = []
                        handoff_ready.append(seq)
                if handoff_ready:
                    for seq in handoff_ready:
                        req_id = seq.request.request_id
                        blocks = block_manager.blocks_held(req_id)
                        dst = -1
                        best_free = -1
                        for d in scheduler.decode_pool:
                            free = block_manager.free_blocks_on(d)
                            if free >= blocks and free > best_free:
                                best_free = free
                                dst = d
                        if dst < 0:
                            # No decode device can hold the KV right now:
                            # preempt off the prefill device instead
                            # (preempt_mode decides recompute vs swap) and
                            # retry the whole admission later.
                            scheduler.preempt(seq)
                            continue
                        src = seq.home_device
                        block_manager.migrate(req_id, src, dst)
                        seq.home_device = dst
                        stall = blocks * self._handoff_s_per_block
                        transfer_t0 = clock
                        clock += stall
                        handoffs += 1
                        handoff_blocks += blocks
                        handoff_s += stall
                        if tracer is not None:
                            tracer.transfer(
                                "handoff", seq, transfer_t0, clock, src, dst, blocks, stall
                            )
                            tracer.now = clock
            elif tracer is None:
                for seq in running:
                    seq.advance(clock, chunk)
                    if seq.state is finished_state:
                        finished_any = True
            else:
                for seq in running:
                    was_prefill = not seq.prefill_done
                    seq.advance(clock, chunk)
                    if was_prefill and seq.prefill_done:
                        # The iteration that completes (re-)prefill emits the
                        # first token; a single-token request finishes in the
                        # same iteration and its finish event follows below.
                        tracer.first_token(seq, clock)
                    if seq.state is finished_state:
                        finished_any = True
            if finished_any:
                scheduler.evict_finished()
                if rebalance_pool:
                    # Elasticity hook: batch membership changed, so the
                    # decode pool's load may have skewed — let the policy
                    # move (at most) one decode sequence per boundary.
                    move = scheduler.policy.select_rebalance(
                        running, block_manager, scheduler.decode_pool
                    )
                    if move is not None:
                        mover, dst = move
                        src = mover.home_device
                        blocks = block_manager.migrate(
                            mover.request.request_id, src, dst
                        )
                        mover.home_device = dst
                        stall = blocks * self._handoff_s_per_block
                        transfer_t0 = clock
                        clock += stall
                        rebalances += 1
                        rebalanced_blocks += blocks
                        rebalance_s += stall
                        if tracer is not None:
                            tracer.transfer(
                                "migrate", mover, transfer_t0, clock, src, dst, blocks, stall
                            )
                            tracer.now = clock

        return (
            clock, iterations, total_tokens, peak_batch, peak_used_blocks,
            peak_shared_blocks, peak_used_per_device,
            straggler_max_s, straggler_mean_s, alltoall_tokens,
            hidden_comm_s, comm_total_s, migration_s, replacements,
            (handoffs, handoff_blocks, handoff_s, rebalances,
             rebalanced_blocks, rebalance_s, swap_in_s, recompute_equivalent_s),
        )

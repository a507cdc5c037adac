"""Multi-GPU serving: device groups, expert placement, sharded KV pools."""

import numpy as np
import pytest

from repro.analysis.expert_frequency import fig3_reference_frequencies
from repro.kernels.device import A100_40GB, DeviceSpec
from repro.runtime.backends import MiLoBackend, OutOfMemoryError, PyTorchFP16Backend
from repro.serving import (
    PLACEMENT_POLICIES,
    BalancedPlacement,
    BlockManager,
    ContinuousBatchingScheduler,
    DeviceGroup,
    EngineConfig,
    FrequencyPlacement,
    Request,
    RequestState,
    SchedulerConfig,
    SchedulingPolicy,
    ServingEngine,
    ShardedBlockManager,
    expert_weight_fraction,
    make_allocation_policy,
    make_expert_placement,
    poisson_workload,
    split_tokens,
    split_tokens_rows,
)
from repro.serving.kv_cache import KVCacheExhausted


def small_device(memory_gb: float) -> DeviceSpec:
    """An A100 clone with shrunk VRAM, to make per-device capacity bind."""
    from dataclasses import replace

    return replace(A100_40GB, name=f"A100-{memory_gb:g}GB", memory_gb=memory_gb)


class TestDeviceGroup:
    def test_replicate_names_and_len(self):
        group = DeviceGroup.replicate(A100_40GB, 3)
        assert len(group) == 3
        assert group.names == ("gpu0", "gpu1", "gpu2")

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceGroup(devices=())
        with pytest.raises(ValueError):
            DeviceGroup.replicate(A100_40GB, 0)


class TestFig3Frequencies:
    def test_normalized_with_exact_imbalance(self):
        freqs = fig3_reference_frequencies(8, imbalance_ratio=11.7)
        assert freqs.sum() == pytest.approx(1.0)
        assert freqs.max() / freqs.min() == pytest.approx(11.7)
        assert (freqs > 0).all()

    def test_single_expert_and_validation(self):
        assert fig3_reference_frequencies(1).tolist() == [1.0]
        with pytest.raises(ValueError):
            fig3_reference_frequencies(0)
        with pytest.raises(ValueError):
            fig3_reference_frequencies(8, imbalance_ratio=0.5)


class TestExpertPlacement:
    SKEW = tuple(fig3_reference_frequencies(8, imbalance_ratio=11.7))

    def test_balanced_round_robins_expert_ids(self):
        placement = BalancedPlacement(self.SKEW, 4)
        assert placement.assignment == (0, 1, 2, 3, 0, 1, 2, 3)
        assert [placement.experts_on(d) for d in range(4)] == [2, 2, 2, 2]

    def test_frequency_packs_mass_not_counts(self):
        balanced = BalancedPlacement(self.SKEW, 4)
        frequency = FrequencyPlacement(self.SKEW, 4)
        # Every expert placed on a real device; counts may be uneven (LPT
        # pairs hot experts with nothing and stacks cold ones) but the peak
        # device *mass* — the straggler — is strictly lower.
        assert len(frequency.assignment) == 8
        assert sum(frequency.experts_on(d) for d in range(4)) == 8
        assert max(frequency.device_mass) < max(balanced.device_mass)
        assert frequency.load_imbalance < balanced.load_imbalance
        # Mass is conserved either way.
        assert sum(frequency.device_mass) == pytest.approx(1.0)
        assert sum(balanced.device_mass) == pytest.approx(1.0)

    def test_uniform_frequencies_make_placement_moot(self):
        uniform = [1.0] * 8
        balanced = BalancedPlacement(uniform, 4)
        frequency = FrequencyPlacement(uniform, 4)
        assert max(balanced.device_mass) == pytest.approx(max(frequency.device_mass))
        assert balanced.load_imbalance == pytest.approx(1.0)

    def test_registry_and_factory(self):
        assert set(PLACEMENT_POLICIES) == {"balanced", "frequency"}
        placement = make_expert_placement("frequency", self.SKEW, 2)
        assert isinstance(placement, FrequencyPlacement)
        with pytest.raises(ValueError, match="unknown expert placement"):
            make_expert_placement("random", self.SKEW, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BalancedPlacement((), 2)
        with pytest.raises(ValueError):
            BalancedPlacement((1.0, -0.5), 2)
        with pytest.raises(ValueError):
            BalancedPlacement((1.0,), 0)


class TestSplitTokens:
    def test_sums_to_total_and_is_deterministic(self):
        shares = (0.4, 0.35, 0.25)
        for total in (0, 1, 7, 100, 12345):
            loads = split_tokens(total, shares)
            assert sum(loads) == total
            assert loads == split_tokens(total, shares)

    def test_single_device_gets_everything_exactly(self):
        assert split_tokens(97, (1.0,)) == [97]

    def test_largest_remainder_breaks_ties_by_index(self):
        assert split_tokens(3, (0.5, 0.5)) == [2, 1]
        with pytest.raises(ValueError):
            split_tokens(-1, (1.0,))


class TestSplitTokensRows:
    """The row-wise split must equal :func:`split_tokens` row by row."""

    @staticmethod
    def assert_rowwise(total, mass):
        mass = np.asarray(mass, dtype=np.float64)
        loads = split_tokens_rows(total, mass)
        assert loads.dtype == np.int64 and loads.shape == mass.shape
        assert loads.tolist() == [split_tokens(total, row) for row in mass.tolist()]

    def test_random_masses(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            layers, devices = int(rng.integers(1, 9)), int(rng.integers(1, 11))
            mass = rng.random((layers, devices)) ** float(rng.uniform(0.5, 4.0))
            if devices > 1 and rng.random() < 0.4:
                # Zero-mass columns: devices that host no expert.
                mass[:, rng.choice(devices, int(rng.integers(1, devices)), replace=False)] = 0.0
            mass /= mass.sum(axis=1, keepdims=True)
            for total in (0, 1, int(rng.integers(2, 64)), int(rng.integers(64, 2**20 + 1))):
                self.assert_rowwise(total, mass)

    def test_exact_ties_go_to_the_lowest_index(self):
        for total in (0, 1, 2, 3, 5, 7, 1023, 2**20 + 1):
            self.assert_rowwise(total, [(0.25,) * 4, (0.5, 0.5, 0.0, 0.0), (0.0, 0.5, 0.0, 0.5)])
            self.assert_rowwise(total, [(0.5, 0.5)])
            self.assert_rowwise(total, [(1 / 40,) * 40, (0.05,) * 20 + (0.0,) * 20])
        # Two interleaved tie groups: an unstable sort reorders within them.
        for total in range(1, 200):
            self.assert_rowwise(total, [(1 / 12, 2 / 12) * 4])
            self.assert_rowwise(total, [(0.1, 0.3, 0.1) * 2])
        assert split_tokens_rows(3, np.array([(0.5, 0.5)])).tolist() == [[2, 1]]
        assert split_tokens_rows(2, np.array([(0.25,) * 4])).tolist() == [[1, 1, 0, 0]]

    def test_one_device_rows(self):
        for total in (0, 1, 97, 2**20, 2**53 + 1):
            self.assert_rowwise(total, [(1.0,), (1.0,)])
        # A lone share short of 1.0 takes the general path, as the scalar does.
        for total in (0, 1, 10, 2**20):
            self.assert_rowwise(total, [(0.5,), (1.0,), (0.999,)])

    def test_shares_summing_past_one(self):
        # The floors overshoot the total, a negative remainder, which the
        # scalar form's ``order[:remainder]`` slices from the end.
        for total in (1, 5, 10, 101):
            self.assert_rowwise(total, [(0.6, 0.6), (0.5, 0.55)])
            self.assert_rowwise(total, [(0.7, 0.7, 0.7), (1.0, 1.0, 0.0)])

    def test_negative_total_raises(self):
        with pytest.raises(ValueError):
            split_tokens_rows(-1, np.array([(1.0,)]))
        with pytest.raises(ValueError):
            split_tokens_rows(-1, np.array([(0.5, 0.5)]))


def sharded(pool_sizes, block_size=8):
    return ShardedBlockManager(
        [BlockManager(num_blocks=n, block_size=block_size) for n in pool_sizes]
    )


class TestShardedBlockManager:
    def test_pools_must_agree_on_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            ShardedBlockManager(
                [BlockManager(num_blocks=4, block_size=8), BlockManager(num_blocks=4, block_size=16)]
            )
        with pytest.raises(ValueError):
            ShardedBlockManager([])

    def test_allocate_picks_least_loaded_device(self):
        manager = sharded([8, 8])
        manager.allocate(0, 8)   # tie -> gpu0
        assert manager.home_device(0) == 0
        manager.allocate(1, 8)   # gpu1 now has more free blocks
        assert manager.home_device(1) == 1
        manager.allocate(2, 30)  # 4 blocks; both have 7 free -> gpu0
        assert manager.home_device(2) == 0
        manager.allocate(3, 8)   # gpu1 (7 free) beats gpu0 (3 free)
        assert manager.home_device(3) == 1
        assert manager.used_blocks == 7
        manager.check_invariants()

    def test_free_returns_blocks_to_the_home_pool(self):
        manager = sharded([4, 4])
        manager.allocate(0, 16)  # 2 blocks on gpu0
        manager.allocate(1, 16)  # 2 blocks on gpu1
        assert [p.used_blocks for p in manager.pools] == [2, 2]
        assert manager.free(0) == 2
        assert [p.used_blocks for p in manager.pools] == [0, 2]
        with pytest.raises(KVCacheExhausted):
            manager.free(0)
        manager.free(1)
        manager.assert_no_leaks()

    def test_sequence_kv_never_spans_devices(self):
        """A request larger than every single pool is unadmittable even
        though the summed capacity would fit it: KV is pinned to one home."""
        manager = sharded([4, 4])
        assert not manager.fits_at_all(8 * 8)  # 8 blocks: fits the sum only
        assert manager.fits_at_all(4 * 8)
        assert not manager.can_allocate(8 * 8)
        with pytest.raises(KVCacheExhausted):
            manager.allocate(0, 8 * 8)
        manager.check_invariants()

    def test_max_sequences_sums_over_pools(self):
        manager = sharded([6, 4])
        assert manager.max_sequences(16) == 3 + 2  # 2 blocks per sequence

    def test_grow_charges_the_home_pool_only(self):
        manager = sharded([4, 4])
        manager.allocate(0, 8)
        manager.allocate(1, 8)
        manager.grow(0, 2)
        assert manager.pools[0].used_blocks == 3
        assert manager.pools[1].used_blocks == 1
        # gpu0 has 1 free block left; a 2-block growth must fail even though
        # gpu1 has 3 free.
        with pytest.raises(KVCacheExhausted):
            manager.grow(0, 2)
        assert manager.free_blocks_on(0) == 1 and manager.free_blocks_on(1) == 3
        manager.check_invariants()

    def test_prefix_sharers_colocate_with_their_prefix(self):
        manager = sharded([8, 8])
        # Registrar lands on gpu0 and registers the 2-block prefix there.
        fresh, hits = manager.allocate_shared(0, 24, prefix_id=7, prefix_tokens=16)
        assert (fresh, hits) == (3, 0)
        assert manager.home_device(0) == 0
        # The sharer prefers the device with resident prefix blocks even
        # though gpu1 is now strictly less loaded.
        fresh, hits = manager.allocate_shared(1, 24, prefix_id=7, prefix_tokens=16)
        assert manager.home_device(1) == 0
        assert fresh == 1 and hits == 16
        assert manager.pools[0].shared_blocks == 2
        assert manager.pools[1].used_blocks == 0
        manager.check_invariants()

    def test_full_prefix_hit_takes_no_fresh_blocks_even_on_a_full_home(self):
        manager = sharded([4, 4])
        manager.allocate_shared(0, 32, prefix_id=3, prefix_tokens=32)  # fills gpu0
        # All four blocks are resident prefix: the sharer maps them read-only
        # on the otherwise-full gpu0 instead of allocating on idle gpu1.
        fresh, hits = manager.allocate_shared(1, 32, prefix_id=3, prefix_tokens=32)
        assert manager.home_device(1) == 0
        assert fresh == 0 and hits == 32
        assert manager.pools[1].used_blocks == 0
        manager.check_invariants()

    def test_prefix_replicates_per_device_when_home_is_full(self):
        manager = sharded([4, 4])
        # 4 blocks on gpu0, the leading 3 registered as prefix; gpu0 is full.
        manager.allocate_shared(0, 32, prefix_id=3, prefix_tokens=24)
        assert manager.home_device(0) == 0 and manager.free_blocks_on(0) == 0
        # The sharer needs one private block beyond its 3 prefix hits; gpu0
        # has none, so it homes on gpu1 and registers a *fresh copy* of the
        # prefix there — resident per device, exactly once per hosting pool.
        fresh, hits = manager.allocate_shared(1, 32, prefix_id=3, prefix_tokens=24)
        assert manager.home_device(1) == 1
        assert fresh == 4 and hits == 0
        assert manager.pools[0].prefix_hits(3, 24) == 3
        assert manager.pools[1].prefix_hits(3, 24) == 3
        assert manager.prefix_hit_blocks == 0
        manager.check_invariants()

    def test_cross_device_invariant_catches_corrupt_home_map(self):
        manager = sharded([4, 4])
        manager.allocate(0, 8)
        manager._home[0] = 1  # corrupt: blocks live on gpu0
        with pytest.raises(KVCacheExhausted, match="home map"):
            manager.check_invariants()

    def test_single_pool_home_hooks(self):
        pool = BlockManager(num_blocks=4, block_size=8)
        pool.allocate(0, 8)
        assert pool.home_device(0) == 0
        assert pool.free_blocks_on(0) == pool.free_blocks == 3
        with pytest.raises(KVCacheExhausted):
            pool.free_blocks_on(1)
        assert pool.sequences() == (0,)


class TestAdmissionPicksOnce:
    @pytest.mark.parametrize("prefix_id", [None, 0])
    def test_each_admission_picks_its_home_once(self, prefix_id):
        """The fit test's device is handed to the allocation: one home pick
        per admitted request, landing where the pick said."""
        manager = sharded([16, 16, 16])
        calls = []
        for name in ("pick_home", "pick_shared_home"):
            pick = getattr(manager, name)

            def counted(*args, pick=pick):
                device = pick(*args)
                calls.append(device)
                return device

            setattr(manager, name, counted)
        sched = ContinuousBatchingScheduler(
            manager,
            SchedulerConfig(max_batch_size=8),
            allocation=make_allocation_policy("ondemand", manager),
        )
        seqs = [
            sched.add_request(
                Request(i, 0.0, 8, 4, prefix_id=prefix_id,
                        prefix_tokens=8 if prefix_id is not None else 0)
            )
            for i in range(4)
        ]
        admitted = sched.admit(now=0.0)
        assert admitted == seqs and len(calls) == 4
        assert [seq.home_device for seq in seqs] == calls
        assert calls == [manager.home_device(i) for i in range(4)]


class TestPlacementAwarePreemption:
    def test_victim_shares_the_growers_home_device(self):
        """Preempting a sequence on another device frees nothing usable;
        the scheduler must pick its victim from the grower's home pool."""
        manager = sharded([4, 4])
        sched = ContinuousBatchingScheduler(
            manager,
            SchedulerConfig(max_batch_size=8),
            allocation=make_allocation_policy("ondemand", manager),
        )
        seqs = [
            sched.add_request(
                Request(request_id=i, arrival_time=0.0, prompt_tokens=8, max_new_tokens=24)
            )
            for i in range(4)
        ]
        sched.admit(now=0.0)
        # Least-loaded admission alternates homes: 0, 1, 0, 1 — both full.
        assert [s.home_device for s in seqs] == [0, 1, 0, 1]
        assert manager.free_blocks == 0
        # Decode until the block boundary: the growth deficit appears on both
        # devices in the same iteration (all four sequences are in lockstep).
        preempted = []
        for step in range(1, 12):
            preempted = sched.ensure_capacity()
            if preempted:
                break
            for seq in list(sched.running):
                seq.advance(now=float(step))
        # Each grower (seqs 0 and 1, highest precedence per device) preempts
        # the lower-precedence sequence homed on its *own* device.
        assert {s.request.request_id for s in preempted} == {2, 3}
        assert seqs[2].home_device == seqs[0].home_device == 0
        assert seqs[3].home_device == seqs[1].home_device == 1
        manager.check_invariants()
        assert sched.preemptions == 2


class TestSchedulerKVMoves:
    """``handoff`` and ``rebalance``: the scheduler picks where KV lands and
    moves it; the returned :class:`KVMove` is what the engine prices."""

    @staticmethod
    def disagg_scheduler(pool_sizes, policy=None):
        """Device 0 is the prefill pool, the rest the decode pool; 8-token
        blocks, reservation policy."""
        manager = sharded(pool_sizes)
        sched = ContinuousBatchingScheduler(
            manager, SchedulerConfig(max_batch_size=8), policy=policy, prefill_devices=1
        )
        return manager, sched

    @staticmethod
    def prefilled(sched, new_tokens):
        """Admit one 8-token-prompt request per entry (2 blocks each) onto
        the prefill pool and run the iteration that completes their prefill."""
        for i, n in enumerate(new_tokens):
            sched.add_request(
                Request(request_id=i, arrival_time=0.0, prompt_tokens=8, max_new_tokens=n)
            )
        assert len(sched.admit(now=0.0)) == len(new_tokens)
        started = []
        sched.decode.step(1, 1.0, None, started=started)
        assert all(seq.home_device == 0 for seq in started)
        return started

    def test_scheduler_holds_the_pool_split(self):
        manager, sched = self.disagg_scheduler([4, 4, 4])
        assert (sched.prefill_pool, sched.decode_pool) == ((0,), (1, 2))
        assert manager.admit_devices == (0,)

    def test_handoff_picks_the_most_free_decode_device_that_fits(self):
        manager, sched = self.disagg_scheduler([4, 2, 3])
        a, b = self.prefilled(sched, [8, 8])
        move = sched.handoff(a)
        assert move == (a, 0, 2, 2)  # device 2 has 3 free, device 1 only 2
        assert manager.home_device(0) == a.home_device == 2
        # Device 2 now has 1 free block < 2: only device 1 fits.
        assert sched.handoff(b) == (b, 0, 1, 2)
        assert sched.decode.home == [0, 1, 1]
        assert manager.free_blocks_on(0) == 4
        manager.check_invariants()

    def test_handoff_ties_go_to_the_first_decode_device(self):
        manager, sched = self.disagg_scheduler([4, 2, 2])
        a, b = self.prefilled(sched, [8, 8])
        assert sched.handoff(a).dst == 1
        assert sched.handoff(b).dst == 2

    def test_handoff_preempts_when_no_decode_device_fits(self):
        manager, sched = self.disagg_scheduler([4, 2])
        a, b = self.prefilled(sched, [8, 8])
        assert sched.handoff(a).dst == 1
        assert sched.handoff(b) is None  # device 1 is full
        assert b.state is RequestState.QUEUED and b.preemptions == 1
        assert sched.preemptions == 1
        assert list(sched.waiting) == [b] and sched.running == [a]
        assert manager.blocks_held(1) == 0  # its prefill KV was freed
        assert sched.decode.home == [0, 1]
        manager.check_invariants()

    def test_refused_handoff_migration_leaves_both_tables_intact(self, monkeypatch):
        manager, sched = self.disagg_scheduler([4, 2, 2])
        a, b = self.prefilled(sched, [8, 8])
        sched.handoff(a)
        table = manager.block_table(1)
        # A stale free count steers the handoff to the full device 1; its
        # pool refuses to adopt the table.
        monkeypatch.setattr(manager, "free_blocks_on", lambda d: 99)
        with pytest.raises(KVCacheExhausted):
            sched.handoff(b)
        monkeypatch.undo()
        assert manager.home_device(1) == b.home_device == 0
        assert manager.block_table(1) == table
        assert manager.pools[1].sequences() == (0,)
        assert sched.decode.home == [1, 1, 0]
        manager.check_invariants()

    def test_rebalance_never_moves_on_a_one_device_decode_pool(self):
        calls = []

        class EagerRebalance(SchedulingPolicy):
            def select_rebalance(self, running, pool, decode_pool):
                calls.append(decode_pool)
                return running[0], decode_pool[0]

        _, sched = self.disagg_scheduler([4, 4], policy=EagerRebalance())
        (a,) = self.prefilled(sched, [8])
        sched.handoff(a)
        assert sched.rebalance() is None
        assert calls == []

    def test_rebalance_waits_for_a_gap_of_twice_the_moved_blocks(self):
        manager, sched = self.disagg_scheduler([6, 4, 8])
        a, b, c = self.prefilled(sched, [2, 8, 8])
        assert [sched.handoff(s).dst for s in (a, b, c)] == [2, 2, 1]
        # Device 1 (2 free) is the most loaded, device 2 (4 free) the least:
        # moving c's 2 blocks needs device 2 at least 2 + 2*2 free.
        assert sched.rebalance() is None
        assert sched.decode.step(2, 2.0, None)  # a finishes: device 2 has 6 free
        sched.evict_finished()
        move = sched.rebalance()
        assert move == (c, 1, 2, 2)
        assert manager.home_device(2) == c.home_device == 2
        assert sched.decode.home == [0, 0, 2]
        manager.check_invariants()


def cluster_config(**kwargs):
    defaults = dict(max_batch_size=100_000, kv_policy="ondemand", reserve_gb=17.0)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


class TestClusterEngine:
    SKEW = tuple(fig3_reference_frequencies(8, imbalance_ratio=11.7))

    def test_single_device_report_has_no_cluster_section(self):
        report = ServingEngine(MiLoBackend(), "mixtral-8x7b", EngineConfig(devices=1)).run(
            poisson_workload(10, qps=20.0, seed=0)
        )
        assert report.cluster is None
        assert "cluster" not in report.to_dict()

    def test_multi_device_report_schema_and_accounting(self):
        engine = ServingEngine(
            MiLoBackend(), "mixtral-8x7b", cluster_config(devices=2, expert_frequencies=self.SKEW)
        )
        report = engine.run(poisson_workload(40, qps=30.0, seed=1, mean_new_tokens=96))
        assert report.completed == 40
        cluster = report.to_dict()["cluster"]
        assert cluster["devices"] == 2 and cluster["placement"] == "balanced"
        assert cluster["straggler_ratio"] >= 1.0
        assert cluster["alltoall_tokens"] > 0
        assert len(cluster["per_device"]) == 2
        for entry in cluster["per_device"]:
            assert set(entry) == {
                "device", "experts", "expert_load_share", "kv_blocks",
                "kv_peak_used_blocks", "kv_utilization_peak",
            }
            assert 0 <= entry["kv_utilization_peak"] <= 1.0
            assert entry["kv_peak_used_blocks"] > 0
        assert sum(e["experts"] for e in cluster["per_device"]) == 8
        # Finished requests name their home device in the per-request records.
        devices = {r["device"] for r in report.requests if r["state"] == "finished"}
        assert devices <= {"gpu0", "gpu1"} and devices
        engine.block_manager.assert_no_leaks()

    def test_multi_device_runs_are_deterministic(self):
        workload = poisson_workload(30, qps=40.0, seed=2, mean_new_tokens=64)
        config = cluster_config(devices=3, placement="frequency", expert_frequencies=self.SKEW)
        first = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload).to_dict()
        second = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload).to_dict()
        assert first == second

    def test_skewed_routing_makes_balanced_placement_straggle(self):
        workload = poisson_workload(60, qps=30.0, seed=0, mean_new_tokens=96, length_jitter=0.0)
        reports = {}
        for placement in ("balanced", "frequency"):
            config = cluster_config(
                devices=4, placement=placement, expert_frequencies=self.SKEW
            )
            reports[placement] = ServingEngine(MiLoBackend(), "mixtral-8x7b", config).run(workload)
        balanced = reports["balanced"].to_dict()["cluster"]
        frequency = reports["frequency"].to_dict()["cluster"]
        # Frequency-aware packing strictly flattens the straggler and that
        # shows up as strictly less simulated time for identical traffic.
        assert frequency["straggler_ratio"] < balanced["straggler_ratio"]
        assert reports["frequency"].sim_time_s < reports["balanced"].sim_time_s
        assert reports["frequency"].sustained_qps > reports["balanced"].sustained_qps

    def test_expert_sharding_lets_fp16_mixtral_fit_four_devices(self):
        """~90 GB FP16 Mixtral OOMs one A100-40GB (and two), but its routed
        experts are ~96% of the checkpoint, so four devices hosting 2 experts
        each fit with room for KV."""
        assert expert_weight_fraction(ServingEngine(
            MiLoBackend(), "mixtral-8x7b").spec) > 0.9
        with pytest.raises(OutOfMemoryError):
            ServingEngine(PyTorchFP16Backend(), "mixtral-8x7b", EngineConfig(devices=1))
        with pytest.raises(OutOfMemoryError) as exc_info:
            ServingEngine(PyTorchFP16Backend(), "mixtral-8x7b", EngineConfig(devices=2))
        assert exc_info.value.device == "gpu0"
        assert exc_info.value.required_gb > exc_info.value.available_gb == 40.0
        engine = ServingEngine(PyTorchFP16Backend(), "mixtral-8x7b", EngineConfig(devices=4))
        assert all(pool.num_blocks > 0 for pool in engine.block_manager.pools)

    def test_disagg_oom_names_the_actual_pool_device(self):
        """Each disaggregation pool spans the *whole* model on its own
        devices, so a 3:1 split makes the lone decode device host all eight
        experts.  The capacity check must size each device by its pool-local
        placement and name the overloaded device — regression for the sizing
        loop using the colocated placement (2 experts everywhere) and either
        passing or blaming gpu0."""
        with pytest.raises(OutOfMemoryError) as exc_info:
            ServingEngine(
                PyTorchFP16Backend(), "mixtral-8x7b",
                EngineConfig(devices=4, prefill_devices=3, decode_devices=1),
            )
        err = exc_info.value
        assert err.device == "gpu3"  # the decode device, not the first device
        assert err.required_gb > err.available_gb == 40.0
        # Mirror image: a 1:3 split overloads the lone *prefill* device.
        with pytest.raises(OutOfMemoryError) as exc_info:
            ServingEngine(
                PyTorchFP16Backend(), "mixtral-8x7b",
                EngineConfig(devices=4, prefill_devices=1, decode_devices=3),
            )
        assert exc_info.value.device == "gpu0"
        # Quantized, the same partitions fit; the all-expert decode device
        # simply keeps less VRAM for KV than its 3-expert prefill peers.
        engine = ServingEngine(
            MiLoBackend(), "mixtral-8x7b",
            EngineConfig(devices=4, prefill_devices=3, decode_devices=1),
        )
        pools = engine.block_manager.pools
        assert all(pool.num_blocks > 0 for pool in pools)
        assert pools[3].num_blocks < min(pool.num_blocks for pool in pools[:3])

    def test_admission_rechecks_capacity_per_device(self):
        """A device the placement loads with extra experts can OOM while the
        across-device average fits: the per-device check must catch it and
        name the overloaded device in the typed error."""
        # Under 11.7x skew the frequency placement puts 3 experts on gpu2/gpu3
        # (mass-balanced, count-unbalanced); balanced puts 2 everywhere.
        device = small_device(8.5)
        balanced = EngineConfig(devices=4, placement="balanced", expert_frequencies=self.SKEW)
        engine = ServingEngine(MiLoBackend(device=device), "mixtral-8x7b", balanced)
        assert [engine.placement.experts_on(d) for d in range(4)] == [2, 2, 2, 2]
        frequency = EngineConfig(devices=4, placement="frequency", expert_frequencies=self.SKEW)
        with pytest.raises(OutOfMemoryError) as exc_info:
            ServingEngine(MiLoBackend(device=device), "mixtral-8x7b", frequency)
        err = exc_info.value
        assert err.device == "gpu2"  # the first 3-expert device
        assert err.backend == "milo"
        assert err.required_gb > err.available_gb == pytest.approx(8.5)

    def test_numpy_frequencies_are_accepted_end_to_end(self):
        """fig3_reference_frequencies returns an ndarray; the placement
        factory and EngineConfig must take it as-is (regression: ndarray
        truthiness raised instead of validating)."""
        freqs = fig3_reference_frequencies(8, imbalance_ratio=11.7)
        placement = make_expert_placement("frequency", freqs, 4)
        assert sum(placement.device_mass) == pytest.approx(1.0)
        config = EngineConfig(devices=2, expert_frequencies=freqs)
        engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
        report = engine.run(poisson_workload(5, qps=20.0, seed=0))
        assert report.completed == 5

    def test_idle_devices_do_not_inflate_the_straggler_ratio(self):
        """With more devices than experts, expert-less devices are idle by
        construction; the straggler baseline averages over the devices that
        actually host expert mass (regression: mean over all devices made
        10 devices / 8 experts report ~1.25x 'skew' under uniform routing)."""
        config = cluster_config(devices=10, expert_frequencies=(1.0,) * 8)
        engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
        assert sum(1 for m in engine.placement.device_mass if m > 0) == 8
        report = engine.run(poisson_workload(30, qps=30.0, seed=0, mean_new_tokens=64))
        cluster = report.to_dict()["cluster"]
        assert 1.0 <= cluster["straggler_ratio"] < 1.2

    def test_expert_frequencies_must_match_the_spec(self):
        config = EngineConfig(devices=2, expert_frequencies=(0.5, 0.5))
        with pytest.raises(ValueError, match="8 experts"):
            ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
        with pytest.raises(ValueError):
            EngineConfig(devices=0)
        with pytest.raises(ValueError):
            EngineConfig(placement="random")
        with pytest.raises(ValueError):
            EngineConfig(expert_frequencies=(1.0, -1.0))
        with pytest.raises(ValueError):
            EngineConfig(expert_frequencies=())

"""Tests for the sharded pod-parallel scheduler (core/sharding.py)."""

import dataclasses
import json
import zlib

import numpy as np
import pytest

from repro.core import capacity
from repro.core.capacity import (
    CapacitySearch,
    CapacitySearchResult,
    available_cpus,
    capacity_bounds,
)
from repro.core.greedy import CwcScheduler
from repro.core.packing import GreedyPacker
from repro.core.pod import (
    PodSpec,
    assemble_schedule,
    default_pod_workers,
    partition_phones,
    pod_instance,
    pod_rate_tables,
    resolve_pod_count,
    solve_pod,
)
from repro.core.serialize import schedule_to_dict
from repro.core.sharding import (
    ShardedScheduler,
    ShardedSearchResult,
    _assign_greedy,
    _assign_hash,
)

from ..conftest import make_instance


def canonical(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


@pytest.fixture
def fleet_instance():
    """A fleet big enough to cut into 4 pods of 3+ phones."""
    return make_instance(n_phones=12, n_breakable=14, n_atomic=4, seed=9)


class TestPodMechanics:
    def test_partition_phones_round_robin(self):
        assert partition_phones(5, 2) == ((0, 2, 4), (1, 3))

    def test_partition_phones_single_pod(self):
        assert partition_phones(3, 1) == ((0, 1, 2),)

    def test_partition_phones_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            partition_phones(3, 4)
        with pytest.raises(ValueError):
            partition_phones(3, 0)

    def test_resolve_pod_count_clamps_to_fleet(self):
        assert resolve_pod_count(8, 3) == 3
        assert resolve_pod_count(2, 100) == 2
        with pytest.raises(ValueError):
            resolve_pod_count(0, 4)

    def test_resolve_pod_count_auto_honours_repro_cpus(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "3")
        # 12 phones / 4-phone floor = 3 pods, matching the CPU budget.
        assert resolve_pod_count("auto", 12) == 3
        # A tiny fleet never shards, whatever the CPU count says.
        assert resolve_pod_count("auto", 5) == 1

    def test_available_cpus_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "7")
        assert available_cpus() == 7
        assert default_pod_workers(3) == 3
        assert default_pod_workers(10) == 7

    def test_available_cpus_ignores_bad_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "zero")
        assert available_cpus() >= 1
        monkeypatch.setenv("REPRO_CPUS", "-2")
        assert available_cpus() >= 1

    def test_pod_instance_slices_costs(self, fleet_instance):
        phones = (1, 5, 9)
        jobs = (0, 3, 7)
        sub = pod_instance(fleet_instance, phones, jobs)
        assert [p.phone_id for p in sub.phones] == [
            fleet_instance.phones[i].phone_id for i in phones
        ]
        for si, fi in enumerate(phones):
            phone = fleet_instance.phones[fi]
            assert sub.b(phone.phone_id) == fleet_instance.b(phone.phone_id)
            for sj, fj in enumerate(jobs):
                job = fleet_instance.jobs[fj]
                assert sub.c(phone.phone_id, job.job_id) == pytest.approx(
                    fleet_instance.c(phone.phone_id, job.job_id)
                )

    def test_pod_rate_tables_match_bruteforce(self, fleet_instance):
        pods = partition_phones(len(fleet_instance.phones), 3)
        bmin, cmin, agg = pod_rate_tables(
            fleet_instance, pods, block_rows=5
        )
        b = fleet_instance.b_array()
        c = fleet_instance.c_matrix()
        for p, members in enumerate(pods):
            idx = np.asarray(members)
            assert bmin[p] == pytest.approx(b[idx].min())
            rate = b[idx, None] + c[idx]
            np.testing.assert_allclose(cmin[p], rate.min(axis=0))
            inv = np.where(rate > 0, 1.0 / rate, 0.0)
            np.testing.assert_allclose(agg[p], inv.sum(axis=0))

    def test_assemble_schedule_orders_by_pod_index(self, fleet_instance):
        search = CapacitySearch()
        pods = partition_phones(len(fleet_instance.phones), 2)
        jobs = tuple(range(len(fleet_instance.jobs)))
        half = len(jobs) // 2
        specs = [
            PodSpec(index=1, phone_positions=pods[1], job_positions=jobs[half:]),
            PodSpec(index=0, phone_positions=pods[0], job_positions=jobs[:half]),
        ]
        reports = [solve_pod(fleet_instance, s, search) for s in specs]
        schedule = assemble_schedule(reports)
        schedule.validate(fleet_instance)
        first_job = next(iter(schedule)).job_id
        assert first_job in {
            fleet_instance.jobs[j].job_id for j in jobs[:half]
        }


class TestShardedScheduler:
    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            ShardedScheduler(pod_assign="roulette")
        with pytest.raises(ValueError):
            ShardedScheduler(pods=0)
        with pytest.raises(ValueError):
            ShardedScheduler(pod_workers=0)
        with pytest.raises(ValueError):
            ShardedScheduler(rebalance_rounds=-1)

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_pods1_byte_identical_to_monolithic(self, fleet_instance, kernel):
        mono = CwcScheduler(kernel=kernel).schedule(fleet_instance)
        sharded = ShardedScheduler(pods=1, kernel=kernel).schedule(
            fleet_instance
        )
        assert canonical(sharded) == canonical(mono)

    def test_result_extends_the_search_record(self):
        """The sharded result declares only the sharding fields."""
        base = {f.name for f in dataclasses.fields(CapacitySearchResult)}
        own = set(ShardedSearchResult.__annotations__)
        assert base.isdisjoint(own)
        assert base < {f.name for f in dataclasses.fields(ShardedSearchResult)}

    def test_monolithic_delegation_carries_cold_reruns(
        self, small_instance, monkeypatch
    ):
        cold = CapacitySearch(kernel="python").run(small_instance)
        # A warm hint below the converged capacity that the packer
        # wrongly reports feasible forces the search's cold rerun.
        hint = capacity_bounds(small_instance)[0]

        class LiesAtHint(GreedyPacker):
            def pack(self, capacity_ms):
                if capacity_ms == hint:
                    return super().pack(cold.capacity_ms)
                return super().pack(capacity_ms)

        monkeypatch.setitem(capacity._KERNEL_CLASSES, "python", LiesAtHint)
        scheduler = ShardedScheduler(pods=1, warm_start=True, kernel="python")
        scheduler.restore_warm_state({"last_capacity_ms": hint})
        schedule = scheduler.schedule(small_instance)
        result = scheduler.last_result
        assert isinstance(result, ShardedSearchResult)
        assert result.pods == 1
        assert result.cold_reruns == 1
        assert canonical(schedule) == canonical(cold.schedule)

    def test_small_fleet_auto_resolves_to_monolithic(self, small_instance):
        scheduler = ShardedScheduler(pods="auto")
        schedule = scheduler.schedule(small_instance)
        schedule.validate(small_instance)
        assert scheduler.last_result.pods == 1
        assert scheduler.last_result.pod_assign == "none"

    @pytest.mark.parametrize("policy", ["lp", "greedy", "hash"])
    def test_policies_produce_valid_certified_schedules(
        self, fleet_instance, policy
    ):
        scheduler = ShardedScheduler(
            pods=3, pod_assign=policy, pod_workers=None
        )
        schedule = scheduler.schedule(fleet_instance)
        schedule.validate(fleet_instance)
        result = scheduler.last_result
        assert result.pods == 3
        assert result.pod_assign == policy
        assert result.pod_solve_ms_max <= result.pod_solve_ms_sum
        assert len(result.pod_reports) >= 2
        makespan = schedule.predicted_makespan_ms(fleet_instance)
        assert makespan == pytest.approx(result.max_height_ms)
        # The pod LP certifies the sandwich: floor <= makespan.
        assert result.lp_floor_ms is not None
        assert makespan >= result.lp_floor_ms * (1 - 1e-9)
        assert result.shard_bound_ratio >= 1.0 - 1e-9

    def test_deterministic_across_repeat_solves(self, fleet_instance):
        first = ShardedScheduler(pods=3, pod_workers=None).schedule(
            fleet_instance
        )
        second = ShardedScheduler(pods=3, pod_workers=None).schedule(
            fleet_instance
        )
        assert canonical(first) == canonical(second)

    def test_hash_policy_is_crc32(self, fleet_instance):
        assignment = _assign_hash(fleet_instance, 3)
        for j, job in enumerate(fleet_instance.jobs):
            expected = zlib.crc32(job.job_id.encode("utf-8")) % 3
            assert assignment[j] == expected

    def test_greedy_splitter_balances_better_than_worst_case(
        self, fleet_instance
    ):
        pods = partition_phones(len(fleet_instance.phones), 3)
        bmin, _cmin, agg = pod_rate_tables(fleet_instance, pods)
        assignment = _assign_greedy(fleet_instance, bmin, agg)
        assert assignment.shape == (len(fleet_instance.jobs),)
        assert set(np.unique(assignment)) <= {0, 1, 2}
        # Every pod gets some work on this mixed workload.
        assert len(np.unique(assignment)) == 3

    def test_rebalance_never_hurts_capacity(self, fleet_instance):
        base = ShardedScheduler(
            pods=3, pod_assign="hash", rebalance_rounds=0, pod_workers=None
        )
        base.schedule(fleet_instance)
        repaired = ShardedScheduler(
            pods=3, pod_assign="hash", rebalance_rounds=3, pod_workers=None
        )
        schedule = repaired.schedule(fleet_instance)
        schedule.validate(fleet_instance)
        assert (
            repaired.last_result.capacity_ms
            <= base.last_result.capacity_ms + 1e-9
        )
        assert repaired.last_result.rebalance_moves >= 0

    def test_pooled_matches_serial(self, fleet_instance, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "4")
        serial = ShardedScheduler(pods=3, pod_workers=None).schedule(
            fleet_instance
        )
        pooled_scheduler = ShardedScheduler(pods=3, pod_workers=2)
        pooled = pooled_scheduler.schedule(fleet_instance)
        assert canonical(pooled) == canonical(serial)

    def test_warm_state_round_trip(self, fleet_instance):
        warm = ShardedScheduler(
            pods=3, warm_start=True, pod_workers=None
        )
        baseline = warm.schedule(fleet_instance)
        state = warm.warm_state()
        # JSON-safe: survives a serialisation round trip.
        state = json.loads(json.dumps(state))
        assert set(state) == {
            "warm_start", "last_capacity_ms", "pod_capacities"
        }
        restored = ShardedScheduler(
            pods=3, warm_start=True, pod_workers=None
        )
        restored.restore_warm_state(state)
        rerun = restored.schedule(fleet_instance)
        assert canonical(rerun) == canonical(baseline)
        assert restored.last_result.warm_start_used

    def test_restore_warm_state_rejects_negative_capacity(self):
        scheduler = ShardedScheduler(pods=2)
        with pytest.raises(ValueError):
            scheduler.restore_warm_state(
                {"last_capacity_ms": None, "pod_capacities": {"0": -5.0}}
            )

    def test_each_round_reports_its_packs(self, fleet_instance):
        scheduler = ShardedScheduler(pods=2, pod_workers=None)
        for _ in range(2):
            scheduler.schedule(fleet_instance)
            result = scheduler.last_result
            assert result.packer_passes == sum(
                report.packer_passes for report in result.pod_reports
            )
            assert result.packer_passes > 0

    def test_certify_off_skips_lp_floor(self, fleet_instance):
        scheduler = ShardedScheduler(
            pods=2, certify=False, pod_workers=None
        )
        scheduler.schedule(fleet_instance)
        assert scheduler.last_result.lp_floor_ms is None
        # The diagnostic ratio still reports against the bisection floor.
        assert scheduler.last_result.shard_bound_ratio > 0.0

    def test_telemetry_labels_per_pod(self, fleet_instance):
        from repro.obs import Telemetry

        telemetry = Telemetry.create(run_id="sharded-test")
        scheduler = ShardedScheduler(
            pods=2, pod_workers=None, telemetry=telemetry
        )
        scheduler.schedule(fleet_instance)
        registry = telemetry.registry
        pods_seen = {
            labels["pod"] for labels in registry.series_labels("pod_solve_ms")
        }
        assert pods_seen == {"0", "1"}
        assert registry.gauge_value("shard_bound_ratio") is not None
        assert registry.gauge_value("shard_pods") == 2.0
        assert registry.counter_value("pod_jobs_total", pod="0") > 0


class TestPolicyRejection:
    """Satellite guarantee: pods only ever run the paper's scheduler."""

    def test_non_default_policy_rejected_with_guidance(self):
        with pytest.raises(ValueError) as excinfo:
            ShardedScheduler(pods=2, policy="energy-aware")
        message = str(excinfo.value)
        assert "cwc-greedy" in message
        assert "energy-aware" in message
        assert "make_policy" in message

    def test_default_policy_accepted_explicitly(self):
        scheduler = ShardedScheduler(pods=2, policy="cwc-greedy")
        assert scheduler.name == "cwc-sharded"
        assert scheduler.last_replicas == ()

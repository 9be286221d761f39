"""Tests for the sharded pod-parallel scheduler (core/sharding.py)."""

import concurrent.futures
import dataclasses
import json

import numpy as np
import pytest

from repro.core import capacity, sharding
from repro.core.capacity import (
    CapacitySearch,
    CapacitySearchResult,
    available_cpus,
    capacity_bounds,
)
from repro.core.greedy import CwcScheduler
from repro.core.packing import GreedyPacker
from repro.core.pod import (
    PodSolveReport,
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
    _build_specs,
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
            ShardedScheduler(pods=0)
        with pytest.raises(ValueError):
            ShardedScheduler(pod_workers=0)

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

    def test_pod_report_carries_the_search_record(self):
        """Pod reports hold the pod's result instead of copying it."""
        base = {f.name for f in dataclasses.fields(CapacitySearchResult)}
        own = {f.name for f in dataclasses.fields(PodSolveReport)}
        assert base.isdisjoint(own)
        assert "search" in own

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

    def test_sharded_cold_reruns_propagate(
        self, fleet_instance, monkeypatch
    ):
        cold = ShardedScheduler(pods=2, pod_workers=None, kernel="python")
        cold_schedule = cold.schedule(fleet_instance)
        # Warm hints at each pod's lower bound that the packer wrongly
        # reports feasible force every pod search into a cold rerun.
        pods = partition_phones(len(fleet_instance.phones), 2)
        bmin, _cmin, agg = pod_rate_tables(fleet_instance, pods)
        specs = _build_specs(pods, _assign_greedy(fleet_instance, bmin, agg))
        hints = {
            spec.index: capacity_bounds(
                pod_instance(
                    fleet_instance, spec.phone_positions, spec.job_positions
                )
            )[0]
            for spec in specs
        }

        class LiesAtHints(GreedyPacker):
            def pack(self, capacity_ms):
                if capacity_ms in hints.values():
                    upper = capacity_bounds(self._instance)[1]
                    return super().pack(upper * (1.0 + 1e-9) + 1e-9)
                return super().pack(capacity_ms)

        monkeypatch.setitem(capacity._KERNEL_CLASSES, "python", LiesAtHints)
        warm = ShardedScheduler(
            pods=2, pod_workers=None, warm_start=True, kernel="python"
        )
        warm.restore_warm_state(
            {
                "last_capacity_ms": None,
                "pod_capacities": {str(k): v for k, v in hints.items()},
            }
        )
        schedule = warm.schedule(fleet_instance)
        assert warm.last_result.pods == 2
        assert warm.last_result.cold_reruns >= 1
        assert warm.last_result.cold_reruns == sum(
            report.search.cold_reruns
            for report in warm.last_result.pod_reports
        )
        assert canonical(schedule) == canonical(cold_schedule)

    def test_pool_fallback_is_counted(self, fleet_instance, monkeypatch):
        from repro.obs import Telemetry

        serial = ShardedScheduler(pods=2, pod_workers=None).schedule(
            fleet_instance
        )

        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", no_pool
        )
        telemetry = Telemetry.create(run_id="pool-fallback")
        scheduler = ShardedScheduler(
            pods=2, pod_workers=2, telemetry=telemetry
        )
        schedule = scheduler.schedule(fleet_instance)
        assert canonical(schedule) == canonical(serial)
        assert scheduler.last_result.pod_pool_fallbacks == 1
        assert (
            telemetry.registry.counter_value("pod_pool_fallbacks_total")
            == 1
        )

    def test_small_fleet_auto_resolves_to_monolithic(self, small_instance):
        scheduler = ShardedScheduler(pods="auto")
        schedule = scheduler.schedule(small_instance)
        schedule.validate(small_instance)
        assert scheduler.last_result.pods == 1

    def test_produces_valid_certified_schedules(self, fleet_instance):
        scheduler = ShardedScheduler(pods=3, pod_workers=None)
        schedule = scheduler.schedule(fleet_instance)
        schedule.validate(fleet_instance)
        result = scheduler.last_result
        assert result.pods == 3
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
                report.search.packer_passes for report in result.pod_reports
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


def _lopsided(instance, pod_of_job):
    """Two-pod specs with a hand-picked job split, solved serially.

    ``pod_of_job`` maps job position to pod index; jobs left out go to
    no pod.
    """
    scheduler = ShardedScheduler(pods=2, pod_workers=None)
    pods = partition_phones(len(instance.phones), 2)
    bmin, _cmin, agg = pod_rate_tables(instance, pods)
    job_pods = np.full(len(instance.jobs), -1)
    for j, p in pod_of_job.items():
        job_pods[j] = p
    specs = _build_specs(pods, job_pods)
    reports = [
        solve_pod(instance, spec, scheduler._local_search) for spec in specs
    ]
    return scheduler, specs, reports, bmin, agg


def _max_capacity(reports):
    return max(report.search.capacity_ms for report in reports)


class TestRebalance:
    """The one repair move of the global capacity search."""

    def test_accepted_move_lowers_max_capacity(self, fleet_instance):
        # Every job but the last on pod 0: far past the 5% gap gate.
        n_jobs = len(fleet_instance.jobs)
        split = {j: 0 for j in range(n_jobs - 1)} | {n_jobs - 1: 1}
        scheduler, specs, reports, bmin, agg = _lopsided(fleet_instance, split)
        new_specs, new_reports, moves = scheduler._global_capacity_search(
            fleet_instance, specs, reports, bmin, agg
        )
        assert moves == 1
        assert _max_capacity(new_reports) < _max_capacity(reports)
        # Exactly one job changed pods.
        assert len(new_specs[0].job_positions) == n_jobs - 2
        assert len(new_specs[1].job_positions) == 2
        assert {r.index for r in new_reports} == {0, 1}

    def test_unhelpful_move_leaves_specs_and_reports(
        self, fleet_instance, monkeypatch
    ):
        # Pod 1 (odd positions, the faster phones) holds the largest
        # atomic job plus a small one; pod 0 holds one small job.
        # Moving either of pod 1's jobs to the slower pod cannot lower
        # the max capacity, so the re-solved pair is discarded.
        job_ids = [job.job_id for job in fleet_instance.jobs]
        big = job_ids.index("a0")  # 1478 KB, the largest atomic job
        scheduler, specs, reports, bmin, agg = _lopsided(
            fleet_instance, {big: 1, 4: 1, 10: 0}
        )
        assert _max_capacity(reports) > 1.05 * min(
            report.search.capacity_ms for report in reports
        )
        solves = []

        def counting_solve_pod(*args, **kwargs):
            solves.append(args[1].index)
            return solve_pod(*args, **kwargs)

        monkeypatch.setattr(sharding, "solve_pod", counting_solve_pod)
        new_specs, new_reports, moves = scheduler._global_capacity_search(
            fleet_instance, specs, reports, bmin, agg
        )
        assert sorted(solves) == [0, 1]  # the move was tried ...
        assert moves == 0  # ... and rejected
        assert new_specs is specs
        assert new_reports is reports


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

"""Instrumentation coverage across the non-server layers.

The server integration is exercised in ``test_report``; here each of
the other instrumented layers — capacity search, scheduler wrapper,
event engine, MIMD throttle, charging simulation, overnight campaigns —
is checked in isolation.
"""

import pytest

from repro.core.capacity import CapacitySearch
from repro.core.greedy import CwcScheduler
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.obs import Telemetry
from repro.sim.campaign import OvernightCampaign, merge_campaign_metrics
from repro.sim.engine import EventLoop
from repro.sim.entities import FleetGroundTruth

from ..conftest import make_instance


class TestCapacityAndSchedulerMetrics:
    def test_capacity_search_counts_probes(self):
        tel = Telemetry.create(run_id="cap")
        instance = make_instance(
            n_breakable=8, n_atomic=4, n_phones=8, seed=3
        )
        CapacitySearch(telemetry=tel).run(instance)
        registry = tel.registry
        assert registry.counter_value("capacity_searches_total", kernel="python") >= 1
        probes = registry.counter_value(
            "capacity_probes_total", outcome="feasible"
        ) + registry.counter_value(
            "capacity_probes_total", outcome="infeasible"
        )
        assert probes > 0
        assert registry.counter_value("capacity_bisection_steps_total") > 0
        assert registry.histogram("capacity_packs_per_search").count == 1

    def test_capacity_metrics_match_the_result(self):
        """The end-of-search metrics are the returned record's counters.

        An unfillable warm hint is resolved by the fleet-fill
        certificate, so the skip count includes a non-bisection skip.
        """
        tel = Telemetry.create(run_id="cap-record")
        instance = make_instance(
            n_breakable=1, n_atomic=0, n_phones=100, seed=1
        )
        search = CapacitySearch(telemetry=tel)
        cold = search.run(instance)
        warm = search.run(instance, warm_hint_ms=cold.capacity_ms * 0.5)
        registry = tel.registry
        both = (cold, warm)
        assert registry.counter_value(
            "capacity_searches_total", kernel="python"
        ) == 2
        assert registry.counter_value("capacity_bisection_steps_total") == sum(
            r.bisection_steps for r in both
        )
        assert registry.counter_value(
            "capacity_shortcircuit_skips_total"
        ) == sum(r.shortcircuit_skips for r in both)
        assert registry.counter_value(
            "capacity_assumed_feasible_total"
        ) == sum(r.assumed_feasible for r in both)
        assert registry.counter_value("capacity_warm_start_hits_total") == 0
        packs = registry.histogram("capacity_packs_per_search")
        assert packs.count == 2
        assert packs.sum == sum(r.packer_passes for r in both)

    def test_scheduler_wrapper_metrics(self):
        tel = Telemetry.create(run_id="sched")
        scheduler = CwcScheduler(telemetry=tel)
        instance = make_instance(
            n_breakable=6, n_atomic=2, n_phones=6, seed=4
        )
        scheduler.schedule(instance)
        registry = tel.registry
        assert registry.counter_value("schedule_items_total") == 8
        assert registry.counter_value("schedule_bins_total") == 6
        assert registry.gauge_value("schedule_last_capacity_ms") > 0


class TestEngineCounters:
    def test_dispatch_and_cancel_counts(self):
        tel = Telemetry.create(run_id="engine")
        loop = EventLoop(telemetry=tel)
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1))
        loop.schedule_at(2.0, lambda: fired.append(2))
        token = loop.schedule_at(3.0, lambda: fired.append(3))
        token.cancel()
        loop.run()
        assert fired == [1, 2]
        assert tel.registry.counter_value("engine_events_dispatched_total") == 2.0
        assert tel.registry.counter_value("engine_events_cancelled_total") == 1.0

    def test_disabled_costs_nothing(self):
        loop = EventLoop()  # no telemetry at all
        loop.schedule_at(1.0, lambda: None)
        loop.run()


class TestThrottleEvents:
    def test_duty_adjust_events_and_gauges(self):
        from repro.power.battery import HTC_SENSATION
        from repro.power.charging import simulate_charging
        from repro.power.throttle import MimdThrottle

        tel = Telemetry.create(run_id="throttle")
        throttle = MimdThrottle(telemetry=tel)
        simulate_charging(HTC_SENSATION, throttle)
        events = tel.bus.of_kind("duty_adjust")
        assert events
        assert all(e.component == "throttle" for e in events)
        directions = tel.registry.counter_value(
            "throttle_adjustments_total", direction="more_cpu"
        ) + tel.registry.counter_value(
            "throttle_adjustments_total", direction="less_cpu"
        )
        assert directions == len(events) == len(throttle.adjustments)
        assert tel.registry.gauge_value("throttle_sleep_s") is not None


class TestChargingSeries:
    def test_battery_series_recorded(self):
        from repro.power.battery import HTC_SENSATION
        from repro.power.charging import simulate_charging
        from repro.power.throttle import ContinuousPolicy

        tel = Telemetry.create(run_id="charge")
        trace = simulate_charging(
            HTC_SENSATION,
            ContinuousPolicy(),
            start_percent=20.0,
            target_percent=40.0,
            telemetry=tel,
            phone_id="p0",
            sample_every_s=120.0,
        )
        series = tel.samplers.get_series(
            "battery_percent", id="p0", policy=trace.policy_name
        )
        assert series is not None
        assert len(series) >= 3
        assert series.values[0] == pytest.approx(20.0)
        assert series.values[-1] == pytest.approx(trace.percents[-1])
        # Samples ride the charging sim's own clock.
        assert series.times_ms == sorted(series.times_ms)

    def test_disabled_changes_nothing(self):
        from repro.power.battery import HTC_SENSATION
        from repro.power.charging import simulate_charging
        from repro.power.throttle import ContinuousPolicy

        kwargs = dict(start_percent=20.0, target_percent=30.0)
        plain = simulate_charging(
            HTC_SENSATION, ContinuousPolicy(), **kwargs
        )
        instrumented = simulate_charging(
            HTC_SENSATION,
            ContinuousPolicy(),
            telemetry=Telemetry.create(run_id="x"),
            **kwargs,
        )
        assert plain.percents == instrumented.percents
        assert plain.duration_s == instrumented.duration_s


class TestCampaignTelemetry:
    def make_campaign(self, telemetry=None):
        from repro.core.model import NetworkTechnology
        from repro.netmodel.links import WirelessLink

        phones = tuple(
            PhoneSpec(phone_id=f"p{i}", cpu_mhz=1000.0) for i in range(3)
        )
        profiles = {"primes": TaskProfile("primes", 10.0, 1000.0)}
        links = {
            p.phone_id: WirelessLink.for_technology(
                NetworkTechnology.WIFI_G, seed=i
            )
            for i, p in enumerate(phones)
        }
        return OvernightCampaign(
            phones,
            links,
            FleetGroundTruth(profiles),
            RuntimePredictor(profiles, alpha=0.5),
            CwcScheduler(),
            telemetry=telemetry,
        )

    def nightly_jobs(self, nights=2):
        return [
            [
                Job(f"n{night}j{i}", "primes", JobKind.BREAKABLE, 20.0, 500.0)
                for i in range(4)
            ]
            for night in range(nights)
        ]

    def test_nights_merge_into_campaign_registry(self):
        tel = Telemetry.create(run_id="camp")
        result = self.make_campaign(tel).run(self.nightly_jobs())
        assert tel.registry.counter_value("campaign_nights_total") == 2.0
        # Completed partitions from both nights accumulate in the merged
        # registry (breakable jobs may split across phones, so at least
        # one completion per job).
        assert tel.registry.counter_value("completions_total") >= 8.0
        night_ends = tel.bus.of_kind("night_end")
        assert len(night_ends) == 2
        times = [e.sim_time_ms for e in night_ends]
        assert times == sorted(times)
        assert result.metrics is not None
        assert result.metrics["counters"]["campaign_nights_total"] == 2.0

    def test_untelemetered_campaign_has_no_metrics(self):
        result = self.make_campaign().run(self.nightly_jobs(1))
        assert result.metrics is None

    def test_merge_campaign_metrics_folds_sweeps(self):
        results = [
            self.make_campaign(Telemetry.create(run_id=f"c{i}")).run(
                self.nightly_jobs(1)
            )
            for i in range(2)
        ]
        merged = merge_campaign_metrics(results)
        assert merged.counter_value("campaign_nights_total") == 2.0
        assert merged.counter_value("completions_total") == sum(
            r.metrics["counters"]["completions_total"] for r in results
        )

    def test_campaign_results_identical_with_and_without(self):
        with_tel = self.make_campaign(
            Telemetry.create(run_id="a")
        ).run(self.nightly_jobs())
        without = self.make_campaign().run(self.nightly_jobs())
        assert [n.measured_makespan_ms for n in with_tel.nights] == [
            n.measured_makespan_ms for n in without.nights
        ]

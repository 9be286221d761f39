"""Multi-night campaigns: CWC as an ongoing service.

The paper evaluates single runs; an enterprise would operate CWC every
night — re-measuring bandwidth before scheduling (Section 3.1's
periodic measurement), carrying the runtime predictor's learned
estimates forward (Section 4.1), sampling that night's unplug failures
from the charging-behaviour profiles (Figure 3), and rolling any work
that could not finish into the next night's queue.

:class:`OvernightCampaign` packages that loop.  It is the substrate for
longitudinal questions the paper only gestures at: how fast prediction
error decays across nights, how much nightly capacity failures cost,
and whether a backlog ever builds up.

Within one campaign the nights are strictly sequential (the predictor's
learning and the backlog flow forward), but *across* campaigns — seed
sweeps, sensitivity studies, fleet-scale benchmarks — every run is
independent.  :func:`run_campaign_sweep` and the generic
:func:`parallel_map` fan those independent runs out over worker
processes, falling back to in-process execution whenever a process pool
is unavailable (restricted sandboxes, unpicklable factories); the
results are identical either way, parallelism is purely a wall-clock
optimisation.

:class:`ContinuousCampaign` runs the same loop as a durable service.
With ``pods=`` it schedules through the pod-parallel
:class:`~repro.core.sharding.ShardedScheduler` (``pod_workers=`` sizes
its process pool); the job-to-pod split is the scheduler's one greedy
splitter, so there is nothing else to choose.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from ..core.model import Job, PhoneSpec
from ..core.prediction import RuntimePredictor
from ..core.serialize import (
    job_from_dict,
    job_to_dict,
    phone_from_dict,
    phone_to_dict,
)
from ..durability.snapshot import (
    SnapshotStore,
    rng_state_from_json,
    rng_state_to_json,
    stable_seed,
)
from ..netmodel.links import WirelessLink
from ..netmodel.measurement import measure_fleet
from ..obs.registry import MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..workloads.arrivals import PoissonArrivalStream
from .churn import FleetChurnModel
from .entities import FleetGroundTruth
from .failures import FailurePlan, RandomUnplugModel
from .server import CentralServer

__all__ = [
    "CAMPAIGN_SNAPSHOT_KIND",
    "NightRecord",
    "CampaignResult",
    "ContinuousCampaign",
    "ContinuousCampaignResult",
    "ContinuousNightRecord",
    "OvernightCampaign",
    "capacity_planning_report",
    "merge_campaign_metrics",
    "parallel_map",
    "run_campaign_sweep",
]

MS_PER_DAY = 24.0 * 3_600_000.0

#: Snapshot kind for night-boundary campaign checkpoints.
CAMPAIGN_SNAPSHOT_KIND = "campaign-night"


@dataclass(frozen=True)
class NightRecord:
    """Summary of one simulated night."""

    night_index: int
    jobs_submitted: int
    jobs_carried_over: int
    predicted_makespan_ms: float
    measured_makespan_ms: float
    failures: int
    reschedule_overhead_ms: float
    unfinished: int

    @property
    def prediction_error(self) -> float:
        """Relative |predicted - measured| for the night's first round."""
        if self.measured_makespan_ms == 0:
            return 0.0
        return (
            abs(self.predicted_makespan_ms - self.measured_makespan_ms)
            / self.measured_makespan_ms
        )


@dataclass
class CampaignResult:
    nights: list[NightRecord]
    final_backlog: tuple[Job, ...]
    #: Merged metrics-registry snapshot across every night's telemetry
    #: (:meth:`~repro.obs.registry.MetricsRegistry.to_dict` form — a
    #: plain dict so results pickle cleanly through worker pools).
    #: None when the campaign ran without telemetry.
    metrics: dict | None = None

    @property
    def total_failures(self) -> int:
        return sum(night.failures for night in self.nights)

    def prediction_errors(self) -> list[float]:
        return [night.prediction_error for night in self.nights]


class OvernightCampaign:
    """Runs CWC night after night over the same fleet.

    Parameters
    ----------
    phones / links:
        The fleet and its wireless links (bandwidth is re-measured
        before every night's scheduling).
    truth:
        Ground-truth execution rates — fixed across nights; this is
        what the persistent predictor converges to.
    predictor:
        Carried across nights; its learned (phone, task) estimates are
        the campaign's memory.
    scheduler:
        Any :class:`~repro.core.greedy.Scheduler`.  A
        :class:`~repro.core.greedy.CwcScheduler` may select its packing
        backend via ``kernel=`` ('auto'/'python'/'numpy' — schedules
        are byte-identical either way) and remains picklable, so
        kernel-configured campaigns still fan out across worker
        processes in :func:`run_campaign_sweep`.
    unplug_model:
        Samples each night's failure plan (None = failure-free nights).
    window_start_hour / window_hours:
        The nightly charging window in local time.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade for the
        whole campaign.  Each night runs under its own child facade
        (the sim clock restarts at zero every night, so nights cannot
        share one event bus); after the night its registry is merged
        into the campaign facade's registry and a ``night_end`` summary
        event is emitted on the campaign bus at the night's wall
        position (``night_index × 24 h``).
    """

    def __init__(
        self,
        phones,
        links,
        truth: FleetGroundTruth,
        predictor: RuntimePredictor,
        scheduler,
        *,
        unplug_model: RandomUnplugModel | None = None,
        measurement_scheduler=None,
        window_start_hour: float = 0.0,
        window_hours: float = 6.0,
        seed: int = 0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if window_hours <= 0:
            raise ValueError("window_hours must be > 0")
        self._phones = tuple(phones)
        self._links = dict(links)
        self._truth = truth
        self._predictor = predictor
        self._scheduler = scheduler
        self._unplug_model = unplug_model
        #: Optional adaptive re-measurement policy
        #: (:class:`~repro.netmodel.scheduler.MeasurementScheduler`);
        #: None re-measures every link every night.
        self._measurement_scheduler = measurement_scheduler
        self._start_hour = window_start_hour
        self._window_hours = window_hours
        self._rng = random.Random(seed)
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    def run(self, nightly_jobs: Sequence[Sequence[Job]]) -> CampaignResult:
        """Simulate one night per entry of ``nightly_jobs``.

        Work unfinished at the end of a night (all assigned phones
        failed, or the round cap was hit) joins the next night's queue;
        whatever remains after the last night is the final backlog.
        """
        if not nightly_jobs:
            raise ValueError("need at least one night of jobs")
        records: list[NightRecord] = []
        backlog: tuple[Job, ...] = ()

        for night_index, new_jobs in enumerate(nightly_jobs):
            jobs = backlog + tuple(new_jobs)
            if not jobs:
                records.append(
                    NightRecord(
                        night_index=night_index,
                        jobs_submitted=0,
                        jobs_carried_over=len(backlog),
                        predicted_makespan_ms=0.0,
                        measured_makespan_ms=0.0,
                        failures=0,
                        reschedule_overhead_ms=0.0,
                        unfinished=0,
                    )
                )
                backlog = ()
                continue

            if self._measurement_scheduler is not None:
                now_ms = night_index * 24.0 * 3_600_000.0
                b = self._measurement_scheduler.measure_due(
                    self._links, now_ms
                )
            else:
                b = measure_fleet(self._links)
            plan = FailurePlan.none()
            if self._unplug_model is not None:
                plan = self._unplug_model.sample_plan(
                    [phone.phone_id for phone in self._phones],
                    start_hour=self._start_hour,
                    duration_hours=self._window_hours,
                    rng=self._rng,
                )
            night_tel: Telemetry | None = None
            tracer = self._tel.tracer if self._tel.enabled else None
            if self._tel.enabled:
                # The night's tracer mirrors the campaign's arming: its
                # spans are adopted under the campaign-side night span
                # below, so one flight recorder covers every night.
                night_tel = Telemetry.create(
                    run_id=f"{self._tel.run_id}-night{night_index}",
                    tracing=tracer is not None,
                )
            server = CentralServer(
                self._phones,
                self._truth,
                self._predictor,
                self._scheduler,
                b,
                failure_plan=plan,
                telemetry=night_tel,
            )
            if tracer is not None:
                assert night_tel is not None and night_tel.tracer is not None
                with tracer.span(
                    "night",
                    category="campaign",
                    night_index=night_index,
                    jobs=len(jobs),
                ) as night_span:
                    result = server.run(jobs)
                    tracer.adopt(
                        night_tel.tracer.drain_dicts(), parent=night_span
                    )
            else:
                result = server.run(jobs)
            backlog = result.unfinished_jobs
            record = NightRecord(
                night_index=night_index,
                jobs_submitted=len(new_jobs),
                jobs_carried_over=len(jobs) - len(new_jobs),
                predicted_makespan_ms=result.predicted_makespan_ms,
                measured_makespan_ms=result.measured_makespan_ms,
                failures=len(result.trace.failures),
                reschedule_overhead_ms=result.reschedule_overhead_ms,
                unfinished=len(result.unfinished_jobs),
            )
            records.append(record)
            if night_tel is not None:
                self._merge_night(night_index, night_tel, record)

        metrics = (
            self._tel.registry.to_dict() if self._tel.enabled else None
        )
        return CampaignResult(
            nights=records, final_backlog=backlog, metrics=metrics
        )

    def _merge_night(
        self, night_index: int, night_tel: Telemetry, record: NightRecord
    ) -> None:
        """Fold one night's telemetry into the campaign facade."""
        tel = self._tel
        assert tel.registry is not None and night_tel.registry is not None
        tel.registry.merge(night_tel.registry)
        tel.inc("campaign_nights_total")
        tel.event(
            "campaign",
            "night_end",
            sim_time_ms=night_index * 24.0 * 3_600_000.0,
            night_index=night_index,
            jobs_submitted=record.jobs_submitted,
            jobs_carried_over=record.jobs_carried_over,
            measured_makespan_ms=record.measured_makespan_ms,
            predicted_makespan_ms=record.predicted_makespan_ms,
            failures=record.failures,
            unfinished=record.unfinished,
            events=len(night_tel.bus.events)
            if night_tel.bus is not None
            else 0,
        )


@dataclass(frozen=True)
class ContinuousNightRecord:
    """Summary of one night of continuous operation."""

    night_index: int
    fleet_size: int
    joined: int
    departed: int
    jobs_submitted: int
    jobs_carried_over: int
    arrivals_in_window: int
    arrivals_deferred: int
    #: Jobs that entered the night's server and finished (job-level).
    jobs_completed: int
    #: Partition-completion records in the night's trace.
    completions: int
    failures: int
    predicted_makespan_ms: float
    measured_makespan_ms: float
    unfinished: int
    idle: bool = False

    @property
    def prediction_error(self) -> float:
        if self.measured_makespan_ms == 0:
            return 0.0
        return (
            abs(self.predicted_makespan_ms - self.measured_makespan_ms)
            / self.measured_makespan_ms
        )

    def to_dict(self) -> dict:
        return {
            "night_index": self.night_index,
            "fleet_size": self.fleet_size,
            "joined": self.joined,
            "departed": self.departed,
            "jobs_submitted": self.jobs_submitted,
            "jobs_carried_over": self.jobs_carried_over,
            "arrivals_in_window": self.arrivals_in_window,
            "arrivals_deferred": self.arrivals_deferred,
            "jobs_completed": self.jobs_completed,
            "completions": self.completions,
            "failures": self.failures,
            "predicted_makespan_ms": self.predicted_makespan_ms,
            "measured_makespan_ms": self.measured_makespan_ms,
            "unfinished": self.unfinished,
            "idle": self.idle,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ContinuousNightRecord":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})


@dataclass
class ContinuousCampaignResult:
    """Outcome of a (possibly resumed) continuous campaign."""

    nights: list[ContinuousNightRecord]
    final_backlog: tuple[Job, ...]
    #: Arrivals stamped past the last simulated window, still queued.
    pending_arrivals: int = 0
    #: Night index the run resumed from, None for a fresh run.
    resumed_from_night: int | None = None
    checkpoints: int = 0

    @property
    def total_submitted(self) -> int:
        return sum(n.jobs_submitted for n in self.nights)

    @property
    def total_jobs_completed(self) -> int:
        return sum(n.jobs_completed for n in self.nights)

    @property
    def total_completions(self) -> int:
        return sum(n.completions for n in self.nights)

    @property
    def total_failures(self) -> int:
        return sum(n.failures for n in self.nights)

    @property
    def peak_carryover(self) -> int:
        return max((n.jobs_carried_over for n in self.nights), default=0)

    def to_dict(self) -> dict:
        return {
            "nights": [n.to_dict() for n in self.nights],
            "final_backlog": [job.job_id for job in self.final_backlog],
            "pending_arrivals": self.pending_arrivals,
            "resumed_from_night": self.resumed_from_night,
            "checkpoints": self.checkpoints,
            "total_submitted": self.total_submitted,
            "total_jobs_completed": self.total_jobs_completed,
            "total_completions": self.total_completions,
            "total_failures": self.total_failures,
        }


def capacity_planning_report(
    result: ContinuousCampaignResult, *, window_hours: float
) -> dict:
    """Can this fleet absorb this workload night after night?

    Per night: window utilisation (makespan over the charging window)
    and the backlog flow.  Aggregate: throughput, mean utilisation, and
    a ``keeps_up`` verdict — the backlog must not grow across the
    campaign (the enterprise question: do we have enough phones, or do
    jobs pile up faster than charging windows retire them?).
    """
    if window_hours <= 0:
        raise ValueError("window_hours must be > 0")
    window_ms = window_hours * 3_600_000.0
    rows = []
    for night in result.nights:
        rows.append(
            {
                "night": night.night_index,
                "fleet_size": night.fleet_size,
                "joined": night.joined,
                "departed": night.departed,
                "submitted": night.jobs_submitted,
                "carried_over": night.jobs_carried_over,
                "jobs_completed": night.jobs_completed,
                "failures": night.failures,
                "unfinished": night.unfinished,
                "makespan_h": round(night.measured_makespan_ms / 3_600_000.0, 3),
                "window_utilization": round(
                    night.measured_makespan_ms / window_ms, 4
                ),
            }
        )
    active = [n for n in result.nights if not n.idle]
    mean_util = (
        sum(r["window_utilization"] for r in rows) / len(rows) if rows else 0.0
    )
    backlog_trend = (
        result.nights[-1].unfinished - result.nights[0].unfinished
        if result.nights
        else 0
    )
    return {
        "nights": len(result.nights),
        "active_nights": len(active),
        "window_hours": window_hours,
        "rows": rows,
        "total_submitted": result.total_submitted,
        "total_jobs_completed": result.total_jobs_completed,
        "total_failures": result.total_failures,
        "final_backlog": len(result.final_backlog),
        "pending_arrivals": result.pending_arrivals,
        "peak_carryover": result.peak_carryover,
        "mean_window_utilization": round(mean_util, 4),
        "throughput_jobs_per_night": round(
            result.total_jobs_completed / len(result.nights), 3
        )
        if result.nights
        else 0.0,
        "backlog_trend": backlog_trend,
        "keeps_up": len(result.final_backlog) == 0 or backlog_trend <= 0,
    }


class ContinuousCampaign:
    """True multi-night continuous operation with durable state.

    Where :class:`OvernightCampaign` replays a fixed job list over a
    fixed fleet, this models the *service*: jobs arrive from a single
    Poisson stream chained across nights
    (:class:`~repro.workloads.arrivals.PoissonArrivalStream`), the
    fleet churns between nights (enrollments, departures, habit drift —
    :class:`~repro.sim.churn.FleetChurnModel`), bandwidth is re-derived
    per night from per-(phone, night) link seeds, and after every night
    the full campaign state — backlog, deferred arrivals, predictor
    memory, scheduler warm cache, churned fleet, drifted unplug
    profile, every RNG position — is checkpointed to a
    :class:`~repro.durability.snapshot.SnapshotStore`.

    ``run(nights, resume=True)`` restores the latest checkpoint and
    continues; because every random draw flows through checkpointed
    state, a killed-and-resumed campaign produces *exactly* the night
    records the uninterrupted one would have, and no backlog or
    deferred arrival is ever lost across the boundary.

    Everything a night consumes is derived from ``seed`` plus
    checkpointed state, so the campaign needs no live objects in its
    constructor — which is also what makes it resumable from a fresh
    process.
    """

    def __init__(
        self,
        *,
        seed: int = 2012,
        jobs_per_night: int = 12,
        arrival_rate_per_hour: float = 40.0,
        window_start_hour: float = 22.0,
        window_hours: float = 6.0,
        churn: FleetChurnModel | None = None,
        hourly_unplug: Sequence[float] | None = None,
        online_fraction: float = 0.9,
        rejoin_probability: float = 0.35,
        kernel: str = "auto",
        warm_start: bool = True,
        pods: int | str | None = None,
        pod_workers: int | str | None = "auto",
        policy: str = "cwc-greedy",
        deviation_sigma: float = 0.03,
        max_rounds_per_night: int = 40,
        checkpoint_dir: str | Path | None = None,
        keep_snapshots: int | None = 14,
        telemetry: Telemetry | None = None,
    ) -> None:
        if jobs_per_night < 0:
            raise ValueError("jobs_per_night must be >= 0")
        if window_hours <= 0:
            raise ValueError("window_hours must be > 0")
        if window_hours > 24:
            raise ValueError("window_hours must be <= 24 (one night per day)")
        # Lazy: ``core.greedy`` itself imports the obs facade, whose
        # package import reaches back into ``sim.campaign`` — a
        # module-level import here would be circular.
        from ..core.greedy import CwcScheduler
        from ..core.sharding import ShardedScheduler
        from ..workloads.mixes import (
            evaluation_workload,
            paper_task_profiles,
        )

        self._seed = seed
        self._jobs_per_night = jobs_per_night
        self._rate = arrival_rate_per_hour
        self._start_hour = window_start_hour
        self._window_hours = window_hours
        self._churn = churn
        self._online_fraction = online_fraction
        self._rejoin_probability = rejoin_probability
        self._max_rounds = max_rounds_per_night
        self._keep_snapshots = keep_snapshots
        if hourly_unplug is None:
            # Figure 3's shape: quiet during the charging night, busy
            # during the day.
            hourly_unplug = [
                0.03 if h in (22, 23, 0, 1, 2, 3, 4) else 0.12
                for h in range(24)
            ]
        self._hourly0 = [float(p) for p in hourly_unplug]
        if len(self._hourly0) != 24:
            raise ValueError(
                f"hourly_unplug needs 24 entries, got {len(self._hourly0)}"
            )

        profiles = paper_task_profiles()
        self._truth = FleetGroundTruth(
            profiles, deviation_sigma=deviation_sigma, seed=seed
        )
        self._predictor = RuntimePredictor(profiles)
        if pods is None:
            if policy == "cwc-greedy":
                self._scheduler = CwcScheduler(
                    kernel=kernel, warm_start=warm_start
                )
            else:
                from ..core.policies import make_policy

                self._scheduler = make_policy(
                    policy, kernel=kernel, warm_start=warm_start
                )
        elif policy != "cwc-greedy":
            raise ValueError(
                f"sharded campaigns (pods={pods!r}) only run the default "
                f"'cwc-greedy' policy, got {policy!r}"
            )
        else:
            self._scheduler = ShardedScheduler(
                pods=pods,
                pod_workers=pod_workers,
                kernel=kernel,
                warm_start=warm_start,
            )
        # A dozen deterministic job prototypes (cycled with fresh ids);
        # 4 of each task keeps the paper's 3-task mix.
        self._templates = evaluation_workload(seed=seed, instances_per_task=4)
        self._store = (
            SnapshotStore(checkpoint_dir) if checkpoint_dir is not None else None
        )
        #: Campaign-scope facade.  When its tracer is armed, every
        #: night's server runs under a per-night child facade whose
        #: spans are adopted back under a campaign-side ``night`` span
        #: — telemetry never touches the checkpointed state, so traced
        #: and untraced campaigns stay byte-identical.
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._reset_state()

    @property
    def window_hours(self) -> float:
        """Length of the nightly charging window, in hours."""
        return self._window_hours

    # -- durable state -----------------------------------------------------

    def _reset_state(self) -> None:
        from ..workloads.mixes import paper_testbed

        self._fleet: tuple[PhoneSpec, ...] = paper_testbed(
            seed=self._seed
        ).phones
        self._backlog: tuple[Job, ...] = ()
        self._deferred: list[tuple[float, Job]] = []
        self._probs = list(self._hourly0)
        self._rng = random.Random(stable_seed(self._seed, "campaign"))
        self._stream = PoissonArrivalStream(
            rate_per_hour=self._rate,
            rng=random.Random(stable_seed(self._seed, "arrivals")),
            start_ms=0.0,
        )
        self._job_counter = 0
        self._next_night = 0
        self._records: list[ContinuousNightRecord] = []

    def _capture_state(self) -> dict:
        scheduler_state = None
        warm = getattr(self._scheduler, "warm_state", None)
        if callable(warm):
            scheduler_state = warm()
        return {
            "next_night": self._next_night,
            "job_counter": self._job_counter,
            "fleet": [phone_to_dict(p) for p in self._fleet],
            "backlog": [job_to_dict(j) for j in self._backlog],
            "deferred": [
                [time_ms, job_to_dict(job)] for time_ms, job in self._deferred
            ],
            "hourly_unplug": list(self._probs),
            "rng_state": rng_state_to_json(self._rng.getstate()),
            "stream": self._stream.state(),
            "predictor_learned": [
                [phone_id, task, value]
                for (phone_id, task), value in sorted(
                    self._predictor.learned_pairs().items()
                )
            ],
            "scheduler": scheduler_state,
            "records": [record.to_dict() for record in self._records],
        }

    def _restore_state(self, state: dict) -> None:
        self._next_night = int(state["next_night"])
        self._job_counter = int(state["job_counter"])
        self._fleet = tuple(phone_from_dict(p) for p in state["fleet"])
        self._backlog = tuple(job_from_dict(j) for j in state["backlog"])
        self._deferred = [
            (float(time_ms), job_from_dict(job))
            for time_ms, job in state["deferred"]
        ]
        self._probs = [float(p) for p in state["hourly_unplug"]]
        self._rng = random.Random()
        self._rng.setstate(rng_state_from_json(state["rng_state"]))
        self._stream = PoissonArrivalStream.from_state(state["stream"])
        self._predictor.load_learned(
            {
                (phone_id, task): value
                for phone_id, task, value in state["predictor_learned"]
            }
        )
        if state.get("scheduler") is not None:
            restore = getattr(self._scheduler, "restore_warm_state", None)
            if callable(restore):
                restore(state["scheduler"])
        self._records = [
            ContinuousNightRecord.from_dict(r) for r in state["records"]
        ]

    # -- one night ---------------------------------------------------------

    def _run_night(self, night_index: int) -> ContinuousNightRecord:
        joined = departed = 0
        if night_index > 0 and self._churn is not None:
            event = self._churn.apply(
                self._fleet, night_index=night_index, rng=self._rng
            )
            self._fleet = event.phones
            joined, departed = len(event.joined), len(event.departed)
            self._probs = self._churn.drift_hourly_probabilities(
                self._probs, rng=self._rng
            )

        night_start = night_index * MS_PER_DAY
        window_end = night_start + self._window_hours * 3_600_000.0

        new_jobs: list[Job] = []
        for _ in range(self._jobs_per_night):
            template = self._templates[
                self._job_counter % len(self._templates)
            ]
            new_jobs.append(
                dataclasses.replace(
                    template,
                    job_id=(
                        f"n{night_index:03d}-{template.task}"
                        f"-{self._job_counter:05d}"
                    ),
                )
            )
            self._job_counter += 1

        # Chain the arrival process: fast-forward through the idle day,
        # then stamp this night's jobs as a continuation of the stream.
        if self._stream.last_ms < night_start:
            self._stream.advance_to(night_start)
        stamped = self._stream.take(new_jobs) if new_jobs else []

        matured = [job for t, job in self._deferred if t <= night_start]
        in_window = [
            (t, job)
            for t, job in self._deferred
            if night_start < t < window_end
        ]
        later = [(t, job) for t, job in self._deferred if t >= window_end]
        for t, job in stamped:
            if t < window_end:
                in_window.append((t, job))
            else:
                later.append((t, job))
        in_window.sort(key=lambda pair: pair[0])
        self._deferred = sorted(later, key=lambda pair: pair[0])

        carried = len(self._backlog) + len(matured)
        arrivals_rel = [
            (t - night_start, job) for t, job in in_window
        ]
        initial = self._backlog + tuple(matured)
        if not initial and arrivals_rel:
            # CentralServer.run needs a non-empty initial batch: the
            # night effectively starts when its first job arrives.
            _, first_job = arrivals_rel.pop(0)
            initial = (first_job,)

        if not initial:
            record = ContinuousNightRecord(
                night_index=night_index,
                fleet_size=len(self._fleet),
                joined=joined,
                departed=departed,
                jobs_submitted=len(new_jobs),
                jobs_carried_over=carried,
                arrivals_in_window=0,
                arrivals_deferred=len(self._deferred),
                jobs_completed=0,
                completions=0,
                failures=0,
                predicted_makespan_ms=0.0,
                measured_makespan_ms=0.0,
                unfinished=0,
                idle=True,
            )
            self._backlog = ()
            return record

        # Links are re-derived per (phone, night): charging phones are
        # static but nightly conditions are not, and a resumed campaign
        # rebuilds exactly these links from the same stable seeds.
        links = {
            phone.phone_id: WirelessLink.for_technology(
                phone.network,
                interference_factor=0.85,
                seed=stable_seed(self._seed, phone.phone_id, night_index),
            )
            for phone in self._fleet
        }
        b = measure_fleet(links)
        model = RandomUnplugModel(
            self._probs,
            online_fraction=self._online_fraction,
            rejoin_probability=self._rejoin_probability,
        )
        plan = model.sample_plan(
            [phone.phone_id for phone in self._fleet],
            start_hour=self._start_hour,
            duration_hours=self._window_hours,
            rng=self._rng,
        )
        tracer = self._tel.tracer if self._tel.enabled else None
        night_tel: Telemetry | None = None
        if tracer is not None:
            night_tel = Telemetry.create(
                run_id=f"{self._tel.run_id}-night{night_index}",
                tracing=True,
            )
        server = CentralServer(
            self._fleet,
            self._truth,
            self._predictor,
            self._scheduler,
            b,
            failure_plan=plan,
            max_rounds=self._max_rounds,
            telemetry=night_tel,
        )
        if tracer is not None:
            assert night_tel is not None and night_tel.tracer is not None
            with tracer.span(
                "night",
                category="campaign",
                night_index=night_index,
                fleet=len(self._fleet),
                jobs=len(initial) + len(arrivals_rel),
            ) as night_span:
                result = server.run(initial, arrivals=arrivals_rel)
                tracer.adopt(
                    night_tel.tracer.drain_dicts(), parent=night_span
                )
        else:
            result = server.run(initial, arrivals=arrivals_rel)
        self._backlog = result.unfinished_jobs
        return ContinuousNightRecord(
            night_index=night_index,
            fleet_size=len(self._fleet),
            joined=joined,
            departed=departed,
            jobs_submitted=len(new_jobs),
            jobs_carried_over=carried,
            arrivals_in_window=len(arrivals_rel),
            arrivals_deferred=len(self._deferred),
            jobs_completed=(
                len(initial) + len(arrivals_rel) - len(result.unfinished_jobs)
            ),
            completions=len(result.trace.completions),
            failures=len(result.trace.failures),
            predicted_makespan_ms=result.predicted_makespan_ms,
            measured_makespan_ms=result.measured_makespan_ms,
            unfinished=len(result.unfinished_jobs),
        )

    # -- the campaign loop -------------------------------------------------

    def run(
        self,
        nights: int,
        *,
        resume: bool = False,
        on_night: Callable[["ContinuousCampaign", int, ContinuousNightRecord], None]
        | None = None,
    ) -> ContinuousCampaignResult:
        """Operate for ``nights`` nights, checkpointing each boundary.

        With ``resume`` (and a checkpoint directory holding a campaign
        snapshot), completed nights are skipped and the run continues
        from the restored state; a corrupted latest snapshot falls back
        to the previous good one.  ``on_night`` fires after each
        night's checkpoint is durable — raising from it models a crash
        between nights, which is exactly what the kill/restore drill
        does.
        """
        if nights < 1:
            raise ValueError(f"nights must be >= 1, got {nights!r}")
        resumed_from: int | None = None
        if resume and self._store is not None:
            snapshot = self._store.latest(kind=CAMPAIGN_SNAPSHOT_KIND)
            if snapshot is not None:
                self._restore_state(snapshot.state)
                resumed_from = self._next_night
        checkpoints = 0
        while self._next_night < nights:
            night_index = self._next_night
            record = self._run_night(night_index)
            self._records.append(record)
            self._next_night = night_index + 1
            if self._store is not None:
                self._store.save(
                    CAMPAIGN_SNAPSHOT_KIND, self._capture_state()
                )
                checkpoints += 1
                if self._keep_snapshots is not None:
                    self._store.prune(keep_last=self._keep_snapshots)
            if on_night is not None:
                on_night(self, night_index, record)
        return ContinuousCampaignResult(
            nights=list(self._records),
            final_backlog=self._backlog,
            pending_arrivals=len(self._deferred),
            resumed_from_night=resumed_from,
            checkpoints=checkpoints,
        )


def merge_campaign_metrics(
    results: Sequence[CampaignResult],
) -> MetricsRegistry:
    """Merge the metric snapshots of several campaigns into one registry.

    The per-worker merging step of a telemetry-enabled sweep: each
    worker process ships its campaign's counters home as a plain dict
    (:attr:`CampaignResult.metrics`); this folds them together with
    :meth:`~repro.obs.registry.MetricsRegistry.merge_dict` (counters
    and histograms add, gauges last-write-wins).  Campaigns without
    telemetry contribute nothing.
    """
    merged = MetricsRegistry()
    for result in results:
        if result.metrics:
            merged.merge_dict(result.metrics)
    return merged


def parallel_map(
    fn: Callable,
    inputs: Sequence,
    *,
    max_workers: int | None = None,
    parallel: bool = True,
):
    """Apply ``fn`` to every input, across worker processes when possible.

    ``fn`` must be a module-level (picklable) callable and each call
    must be independent of the others — exactly the shape of a seed
    sweep or a fleet-size sweep.  Results come back in input order.

    Process pools are an optimisation, never a requirement: if the pool
    cannot be created (sandboxes without POSIX semaphores), a worker
    dies, or ``fn``/its arguments refuse to pickle, the remaining work
    runs serially in-process.  Callers therefore get identical results
    on any platform, just with different wall-clock times.
    """
    inputs = list(inputs)
    if not parallel or len(inputs) <= 1:
        return [fn(arg) for arg in inputs]
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(fn, arg) for arg in inputs]
            return [future.result() for future in futures]
    except Exception:
        # Pool creation, pickling, or a worker failed; the computation
        # itself may still be fine — retry serially from scratch.
        return [fn(arg) for arg in inputs]


def _run_sweep_entry(entry):
    factory, seed, nightly_jobs = entry
    return seed, factory(seed).run(nightly_jobs)


def run_campaign_sweep(
    campaign_factory: Callable[[int], OvernightCampaign],
    nightly_jobs: Sequence[Sequence[Job]],
    seeds: Sequence[int],
    *,
    max_workers: int | None = None,
    parallel: bool = True,
) -> dict[int, CampaignResult]:
    """Run one independent campaign per seed, in parallel when possible.

    ``campaign_factory(seed)`` must build a *fresh* campaign — its own
    predictor, ground truth, and scheduler — so runs share no mutable
    state and the sweep is embarrassingly parallel.  The factory must be
    a module-level callable for the process-pool path to engage;
    anything else silently degrades to the serial path.

    Returns ``{seed: CampaignResult}``; identical regardless of whether
    worker processes were actually used.
    """
    entries = [(campaign_factory, seed, nightly_jobs) for seed in seeds]
    results = parallel_map(
        _run_sweep_entry, entries, max_workers=max_workers, parallel=parallel
    )
    return dict(results)

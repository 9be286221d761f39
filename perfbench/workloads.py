"""The benchmark's three workloads, each measured untraced or traced.

Every workload drives the program through its public entry points only
and checks every output outside the timed region:

* ``fleet-cold`` — 1000 phones x 1000 jobs, one cold pass
  (``SchedulingInstance.build`` + ``CwcScheduler().schedule``) per
  generated instance, in a closed loop with one caller;
* ``fleet-sharded`` — the same instances through
  ``ShardedScheduler(pods=P, pod_workers=P, certify=True)`` with ``P``
  the host's CPU count (at least 2);
* ``night-chaos`` — one ``CentralServer.run`` per generated night: 100
  phones, a small initial batch, a sparse trickle of arrivals (an open
  loop in simulated time), a sampled chaos plan, the hardened resilience
  policy and a warm-started scheduler.

Every run schedules a fixed set of ``INPUTS`` inputs (instances or
nights), all drawn from the seed.  It makes rounds until it has made
``MIN_ROUNDS`` and ``seconds`` have elapsed, and each round runs every
input once, in order, so the runs of one input are spread over the whole
run.  Each input is timed by its best run (per ``schedule`` call on
night-chaos, where every run of a night makes the same calls).  Other
tenants of a shared host slow the program in bursts that last seconds,
so a median over runs reads the host as much as the program; the best of
runs spread apart reads the program's own speed.  Every run of an input
must schedule exactly as its first run did.  Quantities that are exact
per input (makespans, turnarounds, resilience counters) come from the
first run of each, and tails are over the fixed inputs, so neither
depends on how fast the program is.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import fleet as gen
import stats
from repro.core.capacity import CapacitySearch, capacity_bounds
from repro.core.greedy import CwcScheduler
from repro.core.instance import SchedulingInstance
from repro.core.prediction import RuntimePredictor
from repro.core.serialize import schedule_to_dict
from repro.core.sharding import ShardedScheduler
from repro.sim.chaos import ResiliencePolicy
from repro.sim.entities import FleetGroundTruth
from repro.sim.metrics import compute_resilience_report
from repro.sim.server import CentralServer, RunResult
from repro.sim.trace import SpanKind
from repro.sim.validation import check_run_invariants
from repro.workloads.mixes import paper_task_profiles

PROFILES = paper_task_profiles()

#: Instances (fleet workloads) or nights (night-chaos) every run
#: schedules, and the rounds it makes over them at least, however long
#: they take.  Passes of one instance repeated back to back on a shared
#: 2-CPU host took 1.1 to 2.0 s, in slow spells of several seconds, so
#: each input runs three times, spread over the run, and keeps its best.
INPUTS = 4
MIN_ROUNDS = 3


def packer_class(kernel: str):
    """The packer class behind the kernel name a capacity search reports.

    Reads the search's own kernel table, so the replayed pack runs on the
    class the search ran; ``None`` when the kernel is not in it.
    """
    from repro.core import capacity

    return getattr(capacity, "_KERNEL_CLASSES", {}).get(kernel)


def available_cpus() -> int:
    try:
        from repro.core.capacity import available_cpus as program_cpus
    except ImportError:
        return len(os.sched_getaffinity(0)) or 1
    return program_cpus()


@dataclass
class Result:
    """What one run measured, before units are attached."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    context: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        """Count one failed output check and keep its traceback."""
        self.failed += 1
        self.context.setdefault("failures", []).append(what)
        traceback.print_exc(file=sys.stderr)


def repeat(seconds: float, minimum: int):
    """Yield 0, 1, 2, ... until ``minimum`` ran and ``seconds`` elapsed."""
    started = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - started < seconds:
        yield index
        index += 1


def peak_rss_mb(concurrent_children: int) -> float:
    """High-water RSS of this process plus its pool's children, in MB.

    The kernel keeps one high-water mark for this process and one for
    its largest finished child; ``concurrent_children`` of those can be
    resident at once, so their sum bounds the peak from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + concurrent_children * child) / 1024.0


def schedule_digest(*schedules) -> str:
    """Short sha256 over the schedules' canonical JSON, in order."""
    digest = hashlib.sha256()
    for schedule in schedules:
        payload = json.dumps(schedule_to_dict(schedule), sort_keys=True)
        digest.update(payload.encode("utf-8"))
    return digest.hexdigest()[:16]


def build_instance(fleet: gen.Fleet, jobs) -> SchedulingInstance:
    return SchedulingInstance.build(
        jobs, fleet.phones, fleet.b_ms_per_kb, RuntimePredictor(PROFILES)
    )


def predicted_job_finish_ms(schedule, instance) -> list[float]:
    """Each job's predicted completion when the whole batch arrives at 0.

    Walks every phone's queue with the accounting of
    ``Schedule.predicted_finish_ms`` (executable once per phone and job,
    then ``l_ij * (b_i + c_ij)``); a job finishes with its last partition.
    """
    finish: dict[str, float] = {}
    for phone_id in schedule.phone_ids:
        b = instance.b(phone_id)
        clock = 0.0
        shipped: set[str] = set()
        for part in schedule.for_phone(phone_id):
            if part.job_id not in shipped:
                clock += instance.job(part.job_id).executable_kb * b
                shipped.add(part.job_id)
            clock += part.input_kb * (b + instance.c(phone_id, part.job_id))
            finish[part.job_id] = max(finish.get(part.job_id, 0.0), clock)
    return list(finish.values())


def report_end_to_end(
    result: Result, sched_ms, jobs_per_s: float, makespans, turnarounds
) -> None:
    """Fill the end-to-end metrics shared by all workloads.

    ``sched_ms`` holds one best-of-runs time per pass or ``schedule``
    call of the run's fixed inputs.
    """
    sched_tail, sched_pct = stats.tail(sched_ms)
    turnaround_tail, turnaround_pct = stats.tail(turnarounds)
    result.metrics.update(
        {
            "sched_p50_ms": stats.median(sched_ms),
            "sched_tail_ms": sched_tail,
            "jobs_per_s": jobs_per_s,
            "makespan_ms": stats.median(makespans),
            "turnaround_p50_ms": stats.median(turnarounds),
            "turnaround_tail_ms": turnaround_tail,
        }
    )
    result.context.update(
        sched_samples=len(sched_ms),
        sched_tail_pct=sched_pct,
        turnaround_samples=len(turnarounds),
        turnaround_tail_pct=turnaround_pct,
    )


def coverage(tracer, root_name: str) -> float:
    """Share of the root spans' wall time their direct children cover."""
    spans = tracer.to_dicts()
    roots = {s["span_id"]: s for s in spans if s["name"] == root_name}
    covered = sum(
        s["end_wall_s"] - s["start_wall_s"]
        for s in spans
        if s.get("parent_id") in roots
    )
    total = sum(s["end_wall_s"] - s["start_wall_s"] for s in roots.values())
    return covered / total


def span_ms(tracer, name: str) -> list[float]:
    """Wall durations of the closed spans called ``name``, in start order."""
    return [
        (s["end_wall_s"] - s["start_wall_s"]) * 1e3
        for s in tracer.to_dicts()
        if s["name"] == name
    ]


def span_medians(tracer) -> dict[str, float]:
    """Median wall duration per span name."""
    names = {s["name"] for s in tracer.to_dicts()}
    return {name: stats.median(span_ms(tracer, name)) for name in names}


def paired(seconds: float, inputs: int, result: Result, untraced, traced) -> None:
    """Run each input untraced and traced, flipping which goes first."""
    for turn in repeat(seconds, 1):
        index = turn % inputs
        for is_traced in (turn % 2 == 1, turn % 2 == 0):
            result.attempted += 1
            try:
                (traced if is_traced else untraced)(index)
            except Exception:
                result.fail(f"{'traced' if is_traced else 'untraced'} input {index}")


def elapsed_ms(started: float) -> float:
    return (time.perf_counter() - started) * 1e3


# ---------------------------------------------------------------------------
# fleet-cold
# ---------------------------------------------------------------------------


class FleetCold:
    """Cold 1000 x 1000 scheduling passes on the monolithic scheduler."""

    name = "fleet-cold"
    #: Pool workers whose memory counts alongside this process.
    children = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._batches: dict[int, tuple] = {}

    def batch(self, index: int):
        """The ``index``-th input, generated and checked on first use."""
        if index not in self._batches:
            batch = gen.make_batch(self.seed, index)
            batch[0].check_heterogeneous()
            self._batches[index] = batch
        return self._batches[index]

    def make_scheduler(self):
        return CwcScheduler()

    def setup(self) -> None:
        """Generate the first input and warm every first-use path.

        The warm-up instance has 250 000 cells, enough for the kernel
        selector to pick the same kernel as the full-size passes.
        """
        self.batch(0)
        fleet, jobs = gen.make_batch(self.seed, -1, n_phones=1000, n_jobs=250)
        CwcScheduler().schedule(build_instance(fleet, jobs))

    def checked_pass(self, index: int):
        """One timed pass, then its output check; returns what it made."""
        fleet, jobs = self.batch(index)
        scheduler = self.make_scheduler()
        started = time.perf_counter()
        instance = build_instance(fleet, jobs)
        schedule = scheduler.schedule(instance)
        wall_ms = elapsed_ms(started)
        schedule.validate(instance)
        return instance, schedule, scheduler.last_result, wall_ms

    def measure(self, seconds: float) -> Result:
        result = Result()
        best_ms: dict[int, float] = {}
        #: Per input, from its first pass: digest, makespan, job finishes.
        firsts: dict[int, tuple] = {}
        kernels = set()
        for _ in repeat(seconds, MIN_ROUNDS):
            for index in range(INPUTS):
                result.attempted += 1
                try:
                    instance, schedule, search, wall_ms = self.checked_pass(index)
                    digest = schedule_digest(schedule)
                    if index in firsts:
                        if digest != firsts[index][0]:
                            raise AssertionError("a later pass scheduled differently")
                    else:
                        finish = predicted_job_finish_ms(schedule, instance)
                        makespan = schedule.predicted_makespan_ms(instance)
                        if max(finish) != makespan or len(finish) != len(instance.jobs):
                            raise AssertionError("job finish times disagree with makespan")
                        firsts[index] = (digest, makespan, finish)
                except Exception:
                    result.fail(f"input {index}")
                    continue
                best_ms[index] = min(wall_ms, best_ms.get(index, math.inf))
                kernels.add(search.kernel)
        result.metrics["peak_rss_mb"] = peak_rss_mb(self.children)
        if len(best_ms) < INPUTS:
            return result
        sched_ms = [best_ms[index] for index in range(INPUTS)]
        report_end_to_end(
            result,
            sched_ms,
            INPUTS * gen.FLEET_JOBS / (sum(sched_ms) / 1e3),
            [first[1] for first in firsts.values()],
            [t for first in firsts.values() for t in first[2]],
        )
        result.context.update(
            kernels=sorted(kernels),
            passes=result.attempted,
            digests=[firsts[index][0] for index in range(INPUTS)],
        )
        return result

    def trace(self, seconds: float, tracer) -> Result:
        """Pair every traced pass with an untraced one on the same input."""
        result = Result()
        rows = defaultdict(list)
        paired(
            seconds,
            INPUTS,
            result,
            lambda i: rows["untraced_ms"].append(self.checked_pass(i)[3]),
            lambda i: self.traced_pass(i, tracer, rows),
        )
        if not rows["counts"] or not rows["untraced_ms"]:
            return result
        result.metrics.update(self.layer_metrics(tracer, rows))
        result.metrics["obs.tracing.overhead_frac"] = (
            span_medians(tracer)["bench.pass"] / stats.median(rows["untraced_ms"])
            - 1.0
        )
        result.context.update(
            coverage=coverage(tracer, "bench.pass"), kernel=rows["counts"][0].kernel
        )
        return result

    def traced_pass(self, index: int, tracer, rows) -> None:
        """Call build, bounds and search one by one, then replay one pack."""
        fleet, jobs = self.batch(index)
        with tracer.span("bench.pass", category="bench", index=index):
            with tracer.span("core.instance.build", category="core"):
                instance = build_instance(fleet, jobs)
            with tracer.span("core.capacity.bounds", category="core"):
                capacity_bounds(instance)
            with tracer.span("core.capacity.search", category="core"):
                search = CapacitySearch().run(instance)
        search.schedule.validate(instance)
        rows["counts"].append(search)
        packer = packer_class(search.kernel)
        if packer is None:
            return  # no class to replay on: pack_ms reads 0
        packer = packer(instance)
        with tracer.span("core.packing.pack", category="core", kernel=search.kernel):
            replay = packer.pack(search.capacity_ms)
        if not replay.feasible:
            raise AssertionError("replayed pack at the converged capacity failed")

    @staticmethod
    def layer_metrics(tracer, rows) -> dict[str, float]:
        med = span_medians(tracer)
        first = rows["counts"][0]
        return {
            "core.instance.build_ms": med["core.instance.build"],
            "core.capacity.bounds_ms": med["core.capacity.bounds"],
            "core.capacity.search_ms": med["core.capacity.search"],
            "core.capacity.packs": first.packer_passes,
            "core.capacity.bisection_steps": first.bisection_steps,
            "core.capacity.cert_skips": first.shortcircuit_skips,
            "core.capacity.packs_per_round": first.packer_passes,
            "core.packing.pack_ms": med.get("core.packing.pack", 0.0),
            "core.greedy.calls": 1,
            "core.greedy.busy_frac": (
                med["core.capacity.bounds"] + med["core.capacity.search"]
            )
            / med["bench.pass"],
        }


# ---------------------------------------------------------------------------
# fleet-sharded
# ---------------------------------------------------------------------------


class FleetSharded(FleetCold):
    """The fleet-cold instances through the pod-parallel scheduler."""

    name = "fleet-sharded"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pods = max(2, available_cpus())
        self.children = self.pods

    def make_scheduler(self):
        return ShardedScheduler(
            pods=self.pods, pod_workers=self.pods, certify=True
        )

    def setup(self) -> None:
        """Also start one pod pool and import the LP certificate's solver."""
        super().setup()
        fleet, jobs = gen.make_batch(self.seed, -2, n_phones=16, n_jobs=100)
        self.make_scheduler().schedule(build_instance(fleet, jobs))

    def measure(self, seconds: float) -> Result:
        result = super().measure(seconds)
        result.context["pods"] = self.pods
        return result

    def traced_pass(self, index: int, tracer, rows) -> None:
        fleet, jobs = self.batch(index)
        scheduler = self.make_scheduler()
        with tracer.span("bench.pass", category="bench", index=index):
            with tracer.span("core.instance.build", category="core"):
                instance = build_instance(fleet, jobs)
            with tracer.span("core.sharding.schedule", category="core"):
                schedule = scheduler.schedule(instance)
        schedule.validate(instance)
        rows["counts"].append(scheduler.last_result)

    @staticmethod
    def layer_metrics(tracer, rows) -> dict[str, float]:
        med = span_medians(tracer)
        shards = rows["counts"]
        first = shards[0]
        schedule_ms = span_ms(tracer, "core.sharding.schedule")
        return {
            "core.instance.build_ms": med["core.instance.build"],
            "core.sharding.schedule_ms": med["core.sharding.schedule"],
            "core.pod.solve_ms_max": stats.median(
                s.pod_solve_ms_max for s in shards
            ),
            "core.pod.solve_ms_sum": stats.median(
                s.pod_solve_ms_sum for s in shards
            ),
            "core.sharding.off_pod_ms": stats.median(
                total - s.pod_solve_ms_max for total, s in zip(schedule_ms, shards)
            ),
            "core.sharding.rebalance_moves": first.rebalance_moves,
            "core.lp_bound.bound_ratio": first.shard_bound_ratio,
            "core.capacity.packs": first.packer_passes,
            "core.capacity.bisection_steps": first.bisection_steps,
            "core.capacity.cert_skips": first.shortcircuit_skips,
            "core.capacity.packs_per_round": first.packer_passes,
            "core.greedy.calls": 1,
            "core.greedy.busy_frac": med["core.sharding.schedule"]
            / med["bench.pass"],
        }


# ---------------------------------------------------------------------------
# night-chaos
# ---------------------------------------------------------------------------


class TimedScheduler:
    """Times every ``schedule`` call of the scheduler it wraps.

    Everything else (``last_result``, ``stats``, warm state, ...) is
    the wrapped scheduler's, so the server sees the same object it would
    without the wrapper.  With a tracer, each call is also a span.
    """

    def __init__(self, inner, tracer=None) -> None:
        self._inner = inner
        self._tracer = tracer
        self.samples_ms: list[float] = []
        self.cert_skips = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def schedule(self, instance):
        tracer = self._tracer
        span = None
        if tracer is not None:
            span = tracer.start(
                "core.greedy.schedule", category="core", jobs=len(instance.jobs)
            )
        started = time.perf_counter()
        schedule = self._inner.schedule(instance)
        self.samples_ms.append((time.perf_counter() - started) * 1e3)
        if span is not None:
            tracer.end(span)
        self.cert_skips += self._inner.last_result.shortcircuit_skips
        return schedule


@dataclass
class NightRun:
    night: gen.Night
    result: RunResult
    wall_ms: float
    scheduler: TimedScheduler


class NightChaos:
    """Whole chaos nights on a 100-phone fleet with a sparse trickle."""

    name = "night-chaos"
    children = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._nights: dict[int, gen.Night] = {}

    def night(self, index: int) -> gen.Night:
        if index not in self._nights:
            self._nights[index] = gen.make_night(self.seed, index)
        return self._nights[index]

    def setup(self) -> None:
        """Generate the first night; run one cold and one warm-started search."""
        night = self.night(0)
        scheduler = CwcScheduler(warm_start=True)
        for size in (3, 2):
            scheduler.schedule(build_instance(night.fleet, night.initial[:size]))

    def run(self, index: int, tracer=None) -> NightRun:
        night = self.night(index)
        night.fleet.check_heterogeneous()
        scheduler = TimedScheduler(CwcScheduler(warm_start=True), tracer)
        server = CentralServer(
            night.fleet.phones,
            FleetGroundTruth(PROFILES, deviation_sigma=0.05, seed=night.truth_seed),
            RuntimePredictor(PROFILES),
            scheduler,
            night.fleet.b_ms_per_kb,
            chaos=night.chaos,
            resilience=ResiliencePolicy.hardened(),
            max_rounds=100_000,
        )
        started = time.perf_counter()
        if tracer is None:
            result = server.run(night.initial, arrivals=night.arrivals)
        else:
            with tracer.span("bench.night", category="bench", index=index):
                with tracer.span("sim.server.run", category="sim"):
                    result = server.run(night.initial, arrivals=night.arrivals)
        return NightRun(night, result, elapsed_ms(started), scheduler)

    @staticmethod
    def check(run: NightRun) -> tuple[list[float], int]:
        """Check one night; return its job turnarounds and failed-job count.

        The run must satisfy every run invariant, and every finished
        job's credited input (completed plus checkpointed KB) must equal
        its submitted input.  Unfinished jobs count as failed.
        """
        night, result = run.night, run.result
        check_run_invariants(result, night.jobs)
        credited = defaultdict(float)
        last_credit: dict[str, float] = {}
        for done in result.trace.completions:
            credited[done.job_id] += done.input_kb
            last_credit[done.job_id] = max(
                last_credit.get(done.job_id, 0.0), done.time_ms
            )
        for failure in result.trace.failures:
            if failure.job_id is not None and failure.processed_kb > 0:
                credited[failure.job_id] += failure.processed_kb
        arrived = {job.job_id: 0.0 for job in night.initial}
        arrived.update({job.job_id: at for at, job in night.arrivals})
        unfinished = {job.job_id for job in result.unfinished_jobs}
        failed = 0
        turnarounds = []
        for job in night.jobs:
            if job.job_id in unfinished or job.job_id not in last_credit:
                failed += 1
                continue
            if abs(credited[job.job_id] - job.input_kb) > 1e-6 * max(
                1.0, job.input_kb
            ):
                failed += 1
                continue
            turnarounds.append(last_credit[job.job_id] - arrived[job.job_id])
        return turnarounds, failed

    def checked_run(self, index: int, tracer=None) -> tuple[NightRun, list[float]]:
        """Run night ``index``; raise if any of its jobs failed a check."""
        run = self.run(index, tracer)
        turnarounds, failed = self.check(run)
        if failed:
            raise AssertionError(f"{failed} jobs of night {index} failed checks")
        return run, turnarounds

    def measure(self, seconds: float) -> Result:
        result = Result()
        best_calls_ms: dict[int, list[float]] = {}
        best_wall_ms: dict[int, float] = {}
        #: Per night, from its first run: digest, makespan, turnarounds.
        firsts: dict[int, tuple] = {}
        kernels = set()
        for _ in repeat(seconds, MIN_ROUNDS):
            for index in range(INPUTS):
                night = self.night(index)
                result.attempted += len(night.jobs)
                try:
                    run = self.run(index)
                    turnarounds, failed = self.check(run)
                    calls_ms = run.scheduler.samples_ms
                    digest = schedule_digest(*(r.schedule for r in run.result.rounds))
                    if index in firsts:
                        if digest != firsts[index][0] or len(calls_ms) != len(
                            best_calls_ms[index]
                        ):
                            raise AssertionError("a later run scheduled differently")
                        calls_ms = list(map(min, calls_ms, best_calls_ms[index]))
                    else:
                        makespan = run.result.measured_makespan_ms
                        firsts[index] = (digest, makespan, turnarounds)
                except Exception:
                    result.fail(f"night {index}")
                    result.failed += len(night.jobs) - 1
                    continue
                result.failed += failed
                best_calls_ms[index] = calls_ms
                best_wall_ms[index] = min(run.wall_ms, best_wall_ms.get(index, math.inf))
                kernels.update(r.kernel for r in run.result.rounds)
        result.metrics["peak_rss_mb"] = peak_rss_mb(self.children)
        if len(best_wall_ms) < INPUTS:
            return result
        report_end_to_end(
            result,
            [ms for index in range(INPUTS) for ms in best_calls_ms[index]],
            sum(len(first[2]) for first in firsts.values())
            / (sum(best_wall_ms.values()) / 1e3),
            [first[1] for first in firsts.values()],
            [t for first in firsts.values() for t in first[2]],
        )
        result.context.update(
            nights=INPUTS,
            night_runs=result.attempted // len(self.night(0).jobs),
            kernels=sorted(kernels),
            digests=[firsts[index][0] for index in range(INPUTS)],
        )
        return result

    def trace(self, seconds: float, tracer) -> Result:
        """Pair every traced night with an untraced run of the same night."""
        result = Result()
        rows = defaultdict(list)
        traced_runs = []

        def traced(index: int) -> None:
            run, _ = self.checked_run(index, tracer)
            sched_ms = sum(run.scheduler.samples_ms)
            rows["traced_ms"].append(run.wall_ms)
            rows["busy_frac"].append(sched_ms / run.wall_ms)
            rows["self_ms"].append(run.wall_ms - sched_ms)
            traced_runs.append(run)

        paired(
            seconds,
            INPUTS,
            result,
            lambda i: rows["untraced_ms"].append(self.checked_run(i)[0].wall_ms),
            traced,
        )
        if not traced_runs or not rows["untraced_ms"]:
            return result
        first = traced_runs[0]
        rounds = first.result.rounds
        report = compute_resilience_report(first.result)
        result.metrics.update(
            {
                "core.capacity.packs": sum(r.packer_passes for r in rounds),
                "core.capacity.bisection_steps": sum(
                    r.bisection_steps for r in rounds
                ),
                "core.capacity.cert_skips": first.scheduler.cert_skips,
                "core.capacity.packs_per_round": statistics.fmean(
                    r.packer_passes for r in rounds
                ),
                "core.capacity.warm_used_frac": statistics.fmean(
                    1.0 if r.warm_started else 0.0 for r in rounds
                ),
                "core.greedy.calls": len(first.scheduler.samples_ms),
                "core.greedy.busy_frac": stats.median(rows["busy_frac"]),
                "sim.server.self_ms": stats.median(rows["self_ms"]),
                "sim.server.dispatches": sum(
                    1 for s in first.result.trace.spans if s.kind is SpanKind.COPY
                ),
                "sim.server.retries": report.retries,
                "sim.server.speculations": report.speculations_launched,
                "sim.server.failures_detected": report.failures_detected,
                "sim.server.useful_work_frac": 1.0 - report.wasted_fraction,
                "obs.tracing.overhead_frac": stats.median(rows["traced_ms"])
                / stats.median(rows["untraced_ms"])
                - 1.0,
            }
        )
        result.context.update(
            coverage=coverage(tracer, "bench.night"),
            kernels=sorted({r.kernel for r in rounds}),
        )
        return result


WORKLOADS = {cls.name: cls for cls in (FleetCold, FleetSharded, NightChaos)}

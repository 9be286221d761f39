"""Seeded heterogeneous fleets, job batches and chaos nights.

Every benchmark input comes from here, drawn from ``random.Random``
streams keyed by the benchmark seed.  The program under test only ever
receives the generated phones, ``b_i`` table, jobs, arrivals and chaos
plan.

The fleet is deliberately *not* the paper's 18-phone testbed
replicated: a replicated fleet has only 18 distinct ``(cpu_mhz, b_i)``
classes, so any class- or cache-aware change to the scheduler would look
artificially good on it.  Here every phone draws its own jittered clock,
hidden CPU efficiency, network technology, interference factor and link
seed, and ``b_i`` comes from the repo's own bandwidth test
(:func:`repro.netmodel.measurement.measure_fleet`), so practically every
phone is its own class.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.core.model import Job, NetworkTechnology, PhoneSpec
from repro.netmodel.links import WirelessLink
from repro.netmodel.measurement import measure_fleet
from repro.sim.chaos import ChaosMonkey, ChaosPlan
from repro.workloads.mixes import evaluation_workload

#: Clock range of the paper's testbed (HTC G2 806 MHz to 1.5 GHz).
CLOCK_RANGE_MHZ = (806.0, 1500.0)

#: Technology mix of one paper house (two WiFi phones, then EDGE, 3G,
#: 3G, 4G), with WiFi split 1:2 between the clean 802.11a house and the
#: two interference-prone 802.11g houses: 18 slots, cycled over the fleet.
TECH_WEIGHTS = (
    (NetworkTechnology.WIFI_A, 2),
    (NetworkTechnology.WIFI_G, 4),
    (NetworkTechnology.EDGE, 3),
    (NetworkTechnology.THREE_G, 6),
    (NetworkTechnology.FOUR_G, 3),
)

#: Share of phones that must form their own ``(cpu_mhz, b_i)`` class.
MIN_CLASS_SHARE = 0.99


class GeneratorError(RuntimeError):
    """A generated input broke one of the generator's own guarantees."""


@dataclass(frozen=True)
class Fleet:
    """A generated fleet and its measured per-KB transfer times."""

    phones: tuple[PhoneSpec, ...]
    b_ms_per_kb: dict[str, float]

    def class_count(self) -> int:
        """Distinct ``(cpu_mhz, b_i)`` pairs — the scheduler's view of a phone."""
        return len(
            {(p.cpu_mhz, self.b_ms_per_kb[p.phone_id]) for p in self.phones}
        )

    def check_heterogeneous(self) -> None:
        """Raise unless at least 99 % of the phones are distinct classes."""
        needed = int(MIN_CLASS_SHARE * len(self.phones))
        if self.class_count() < needed:
            raise GeneratorError(
                f"{self.class_count()} distinct (cpu_mhz, b_i) classes among "
                f"{len(self.phones)} phones; need at least {needed}"
            )


@dataclass(frozen=True)
class Night:
    """One ``CentralServer.run``: fleet, jobs, arrivals, chaos, truth seed."""

    fleet: Fleet
    initial: tuple[Job, ...]
    arrivals: tuple[tuple[float, Job], ...]
    chaos: ChaosPlan
    truth_seed: int

    @property
    def jobs(self) -> tuple[Job, ...]:
        return self.initial + tuple(job for _, job in self.arrivals)


def stream(seed: int, *labels) -> random.Random:
    """An independent RNG for one named input of one benchmark seed."""
    return random.Random(repr((seed,) + labels))


def stratified(n: int, low: float, high: float, rng: random.Random) -> list[float]:
    """``n`` draws from ``[low, high)``, one per equal-width stratum, shuffled.

    Every phone still gets its own value, but the fleet's spread of
    values is the same for every seed, so fleet-wide capacity (and with
    it makespans and turnarounds) varies little from seed to seed.
    """
    width = (high - low) / n
    values = [low + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(values)
    return values


def make_fleet(n_phones: int, rng: random.Random) -> Fleet:
    """``n_phones`` phones with per-phone clock, efficiency and link.

    Technologies follow :data:`TECH_WEIGHTS` in exact proportion, 15 %
    of the phones run faster than their clock suggests (Fig. 6's
    outliers), and clocks, efficiencies and interference factors are
    stratified draws.
    """
    cycle = [tech for tech, weight in TECH_WEIGHTS for _ in range(weight)]
    techs = [cycle[i % len(cycle)] for i in range(n_phones)]
    rng.shuffle(techs)
    outliers = [i < round(0.15 * n_phones) for i in range(n_phones)]
    rng.shuffle(outliers)
    clocks = stratified(n_phones, *CLOCK_RANGE_MHZ, rng)
    efficiencies = stratified(n_phones, 1.0, 1.15, rng)
    interference = stratified(n_phones, 0.35, 1.0, rng)
    phones = []
    links = {}
    for index in range(n_phones):
        phone_id = f"phone-{index:04d}"
        phones.append(
            PhoneSpec(
                phone_id=phone_id,
                cpu_mhz=clocks[index],
                network=techs[index],
                cpu_efficiency=efficiencies[index] + 0.25 * outliers[index],
                model_name="bench-heterogeneous",
            )
        )
        links[phone_id] = WirelessLink.for_technology(
            techs[index],
            interference_factor=interference[index],
            seed=rng.randrange(2**31),
        )
    return Fleet(phones=tuple(phones), b_ms_per_kb=measure_fleet(links))


def make_jobs(n_jobs: int, rng: random.Random) -> tuple[Job, ...]:
    """``n_jobs`` jobs from seeded draws of the paper's evaluation mix.

    Each draw holds 50 prime-count, 50 word-count and 50 blur jobs.  The
    draws are interleaved task by task before the cut at ``n_jobs``, so
    every batch holds the three tasks in equal shares (atomic blurs
    included); the result is shuffled.
    """
    by_task: dict[str, list[Job]] = {}
    draw = 0
    while sum(len(jobs) for jobs in by_task.values()) < n_jobs:
        for job in evaluation_workload(seed=rng.randrange(2**31)):
            by_task.setdefault(job.task, []).append(
                dataclasses.replace(job, job_id=f"{job.job_id}-d{draw:03d}")
            )
        draw += 1
    interleaved = [job for group in zip(*by_task.values()) for job in group]
    jobs = interleaved[:n_jobs]
    rng.shuffle(jobs)
    return tuple(jobs)


#: One fleet-scale scheduling input: the ROADMAP's 1000-phone fleet with
#: 1000 jobs.  The ROADMAP's 5000-job batch takes ~5 s per pass on a
#: 2-CPU host, too few passes per run for a median that holds still on a
#: shared host; 1000 jobs still resolve to the numpy kernel with ~23
#: packs per pass.
FLEET_PHONES = 1000
FLEET_JOBS = 1000


def make_batch(
    seed: int, index: int, n_phones: int = FLEET_PHONES, n_jobs: int = FLEET_JOBS
) -> tuple[Fleet, tuple[Job, ...]]:
    """The ``index``-th cold scheduling input of benchmark seed ``seed``."""
    rng = stream(seed, "batch", index)
    return make_fleet(n_phones, rng), make_jobs(n_jobs, rng)


#: The night-chaos shape: a 100-phone fleet, a small initial batch and a
#: trickle sparse enough (one job per 5 min on average) that most
#: scheduling instants see 1-3 jobs and few arrivals queue behind a
#: round a failure has stalled.  A run pools many short nights, because
#: turnarounds vary far more from night to night than within one.
NIGHT_PHONES = 100
NIGHT_INITIAL_JOBS = 5
NIGHT_TRICKLE_JOBS = 60
NIGHT_HOURS = 5.0

#: Flaps, stragglers, bandwidth drops and task crashes.  No result
#: corruption: the hardened policy does not verify results, so a
#: corrupted result would be credited as good work.
NIGHT_MONKEY = ChaosMonkey(
    flap_probability=0.2,
    max_flap_cycles=2,
    flap_down_range_ms=(60_000.0, 600_000.0),
    flap_up_range_ms=(60_000.0, 600_000.0),
    straggler_probability=0.1,
    straggler_factor_range=(2.0, 6.0),
    bandwidth_probability=0.1,
    bandwidth_factor_range=(2.0, 8.0),
    crash_rate=0.3,
)


def make_night(seed: int, index: int) -> Night:
    """The ``index``-th chaos night of benchmark seed ``seed``.

    Arrival times are a Poisson process conditioned on its count: the
    trickle's jobs arrive at sorted uniform instants over the night, so
    the night length is fixed while the gaps stay exponential-like.
    """
    rng = stream(seed, "night", index)
    fleet = make_fleet(NIGHT_PHONES, rng)
    jobs = make_jobs(NIGHT_INITIAL_JOBS + NIGHT_TRICKLE_JOBS, rng)
    night_ms = NIGHT_HOURS * 3_600_000.0
    times = sorted(rng.uniform(0.0, night_ms) for _ in range(NIGHT_TRICKLE_JOBS))
    arrivals = tuple(zip(times, jobs[NIGHT_INITIAL_JOBS:]))
    chaos = NIGHT_MONKEY.sample_plan(
        [phone.phone_id for phone in fleet.phones], duration_ms=night_ms, rng=rng
    )
    return Night(
        fleet=fleet,
        initial=jobs[:NIGHT_INITIAL_JOBS],
        arrivals=arrivals,
        chaos=chaos,
        truth_seed=rng.randrange(2**31),
    )

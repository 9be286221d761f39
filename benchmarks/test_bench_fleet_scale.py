"""Mid-scale speedup of the optimised scheduler over the reference.

At 72 phones × 600 jobs the reference's O(P·J²) bound computation and
O(items × bins) packing dominate, yet it still finishes; both paths
run on the same instance, must produce the same schedule, and the
speedup of the optimised path over the frozen pre-optimisation
reference (:mod:`repro.core._reference`) is recorded as
``mid_scale_full_pass`` in ``BENCH_scheduler.json`` (acceptance floor:
5×).

Fleet-scale passes are measured by ``perfbench/`` (``fleet-cold``,
``fleet-sharded``), whose search counters and schedule digests CI
checks exactly against ``benchmarks/expected_counters.json``.
``_fleet_instance`` (the paper testbed replicated to any size) is
shared with the telemetry and sharded benches.
"""

import dataclasses
import time

from repro.core._reference import ReferenceCapacitySearch
from repro.core.capacity import CapacitySearch
from repro.core.instance import SchedulingInstance
from repro.core.prediction import RuntimePredictor
from repro.core.serialize import schedule_to_dict
from repro.netmodel.measurement import measure_fleet
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)

#: Acceptance floor for the optimised-vs-reference full-pass ratio.
MIN_SPEEDUP = 5.0


def _fleet_instance(n_phones: int, n_jobs: int) -> SchedulingInstance:
    """A synthetic fleet built by replicating the paper testbed."""
    testbed = paper_testbed()
    base = len(testbed.phones)
    copies = (n_phones + base - 1) // base
    phones = [
        dataclasses.replace(phone, phone_id=f"{phone.phone_id}-c{copy}")
        for copy in range(copies)
        for phone in testbed.phones
    ][:n_phones]
    base_b = measure_fleet(testbed.links)
    b = {
        f"{pid}-c{copy}": value
        for pid, value in base_b.items()
        for copy in range(copies)
    }
    workload = len(evaluation_workload())
    repeats = (n_jobs + workload - 1) // workload
    jobs = [
        dataclasses.replace(job, job_id=f"{job.job_id}-r{repeat}")
        for repeat in range(repeats)
        for job in evaluation_workload(seed=150 + repeat)
    ][:n_jobs]
    predictor = RuntimePredictor(paper_task_profiles())
    return SchedulingInstance.build(jobs, tuple(phones), b, predictor)


def test_bench_mid_scale_speedup_vs_reference(record_scheduler_bench):
    """Optimised vs frozen reference, same instance, same schedule."""
    instance = _fleet_instance(n_phones=72, n_jobs=600)

    started = time.perf_counter()
    optimised = CapacitySearch().run(instance)
    optimised_s = time.perf_counter() - started

    started = time.perf_counter()
    reference = ReferenceCapacitySearch().run(instance)
    reference_s = time.perf_counter() - started

    assert schedule_to_dict(optimised.schedule) == schedule_to_dict(
        reference.schedule
    ), "hot-path overhaul changed the schedule"
    assert optimised.capacity_ms == reference.capacity_ms

    speedup = reference_s / optimised_s
    record_scheduler_bench(
        "mid_scale_full_pass",
        phones=len(instance.phones),
        jobs=len(instance.jobs),
        optimised_s=round(optimised_s, 3),
        reference_s=round(reference_s, 3),
        speedup=round(speedup, 1),
        packer_passes=optimised.packer_passes,
        bisection_steps=optimised.bisection_steps,
        kernel=optimised.kernel,
    )
    print(
        f"\nmid scale (72x600): optimised {optimised_s:.2f}s, "
        f"reference {reference_s:.2f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"full-pass speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x floor"
    )

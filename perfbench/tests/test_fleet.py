"""The input generator: deterministic per seed, heterogeneous at scale."""

import dataclasses

import pytest

import fleet as gen
from repro.netmodel.measurement import measure_fleet
from repro.workloads.mixes import paper_testbed


def test_batch_is_deterministic_per_seed():
    first = gen.make_batch(11, 0, n_phones=50, n_jobs=400)
    again = gen.make_batch(11, 0, n_phones=50, n_jobs=400)
    assert first == again
    assert gen.make_batch(12, 0, n_phones=50, n_jobs=400) != first
    assert gen.make_batch(11, 1, n_phones=50, n_jobs=400) != first


def test_night_is_deterministic_per_seed():
    def plain(night):
        return dataclasses.replace(night, chaos=night.chaos.to_dict())

    first = gen.make_night(5, 0)
    assert plain(first) == plain(gen.make_night(5, 0))
    assert plain(first) != plain(gen.make_night(6, 0))
    times = [at for at, _ in first.arrivals]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] <= gen.NIGHT_HOURS * 3_600_000.0
    assert len(first.jobs) == gen.NIGHT_INITIAL_JOBS + gen.NIGHT_TRICKLE_JOBS
    assert len({job.job_id for job in first.jobs}) == len(first.jobs)


def test_fleet_scale_batch_has_990_distinct_classes():
    fleet, jobs = gen.make_batch(1, 0)
    assert len(fleet.phones) == 1000 and len(jobs) == gen.FLEET_JOBS
    assert fleet.class_count() >= 990
    fleet.check_heterogeneous()
    assert len({job.job_id for job in jobs}) == len(jobs)
    tasks = [job.task for job in jobs]
    assert max(map(tasks.count, set(tasks))) - min(map(tasks.count, set(tasks))) <= 1
    clocks = [phone.cpu_mhz for phone in fleet.phones]
    assert gen.CLOCK_RANGE_MHZ[0] <= min(clocks) < max(clocks) <= gen.CLOCK_RANGE_MHZ[1]


def test_replicated_testbed_is_rejected():
    testbed = paper_testbed()
    b = measure_fleet(testbed.links)
    phones, table = [], {}
    for copy in range(3):
        for phone in testbed.phones:
            phone_id = f"{phone.phone_id}-c{copy}"
            phones.append(dataclasses.replace(phone, phone_id=phone_id))
            table[phone_id] = b[phone.phone_id]
    replicated = gen.Fleet(phones=tuple(phones), b_ms_per_kb=table)
    assert replicated.class_count() == len(testbed.phones)
    with pytest.raises(gen.GeneratorError):
        replicated.check_heterogeneous()

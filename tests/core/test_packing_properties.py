"""Property tests for the optimised packer and the search built on it.

Greedy feasibility is *not* monotone in capacity (see
``TestNonMonotoneFeasibility`` in ``test_packing.py``), so the capacity
search never assumes it.  What the search does rely on is pinned here,
across random instances including atomic jobs, jobs at the
``MIN_PARTITION_KB`` granularity, and RAM-clamped fleets:

* **reference equivalence** — the optimised packer takes every decision
  the frozen pre-optimisation packer takes, on arbitrary generated
  instances and capacities (the golden tests cover curated ones);
* **warm-hint replay identity** — a search warm-started at the
  capacity a cold search converged to replays the cold search's
  verdicts: same capacity, same schedule bytes;
* **certificate soundness** — no capacity the infeasibility floors or
  the fleet-fill test reject packs, and none the feasibility threshold
  accepts fails.

Every property is pinned for *each* packing kernel — the exact
scalar :class:`~repro.core.packing.GreedyPacker` and the vectorized
:class:`~repro.core.packing_vec.VectorGreedyPacker` — since the
capacity search may run either.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._reference import ReferenceGreedyPacker
from repro.core.capacity import (
    _CERT_MARGIN,
    CapacitySearch,
    _certificate_floors,
    _fleet_fill_certificate,
    _greedy_feasibility_threshold,
    capacity_bounds,
)
from repro.core.constraints import RamConstraint
from repro.core.instance import SchedulingInstance
from repro.core.model import MIN_PARTITION_KB, Job, JobKind, PhoneSpec
from repro.core.packing import GreedyPacker
from repro.core.packing_vec import VectorGreedyPacker
from repro.core.schedule import InfeasibleScheduleError
from repro.core.serialize import schedule_to_dict

KERNELS = pytest.mark.parametrize(
    "packer_cls", [GreedyPacker, VectorGreedyPacker]
)
SEARCH_KERNELS = pytest.mark.parametrize("kernel", ["python", "numpy"])


@st.composite
def instances(draw):
    n_phones = draw(st.integers(min_value=1, max_value=6))
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    phones = tuple(
        PhoneSpec(
            phone_id=f"p{i}",
            cpu_mhz=draw(
                st.floats(min_value=200.0, max_value=2000.0)
            ),
        )
        for i in range(n_phones)
    )
    jobs = []
    for j in range(n_jobs):
        atomic = draw(st.booleans())
        # Inputs deliberately straddle MIN_PARTITION_KB: sub-granularity
        # jobs, exactly-granular jobs, and ordinary ones.
        input_kb = draw(
            st.one_of(
                st.floats(min_value=0.1, max_value=MIN_PARTITION_KB),
                st.just(MIN_PARTITION_KB),
                st.just(2.0 * MIN_PARTITION_KB),
                st.floats(min_value=1.0, max_value=500.0),
            )
        )
        jobs.append(
            Job(
                job_id=f"j{j}",
                task="t",
                kind=JobKind.ATOMIC if atomic else JobKind.BREAKABLE,
                executable_kb=draw(st.floats(min_value=0.0, max_value=60.0)),
                input_kb=input_kb,
            )
        )
    b = {
        p.phone_id: draw(st.floats(min_value=0.0, max_value=50.0))
        for p in phones
    }
    c = {
        (p.phone_id, job.job_id): draw(
            st.floats(min_value=0.0, max_value=80.0)
        )
        for p in phones
        for job in jobs
    }
    return SchedulingInstance(
        jobs=tuple(jobs), phones=phones, b_ms_per_kb=b, c_ms_per_kb=c
    )


@st.composite
def instance_and_capacities(draw):
    instance = draw(instances())
    lower, upper = capacity_bounds(instance)
    span = max(upper, 1.0)
    fractions = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.3),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    return instance, sorted(f * span for f in fractions)


@KERNELS
@settings(max_examples=120, deadline=None)
@given(case=instance_and_capacities())
def test_packer_matches_reference_everywhere(packer_cls, case):
    instance, capacities = case
    optimised = packer_cls(instance)
    reference = ReferenceGreedyPacker(instance)
    for capacity in capacities:
        a = optimised.pack(capacity)
        b = reference.pack(capacity)
        assert a.feasible == b.feasible
        assert a.max_height_ms == b.max_height_ms
        assert a.opened_bins == b.opened_bins
        if a.feasible:
            assert schedule_to_dict(a.schedule) == schedule_to_dict(
                b.schedule
            )


def _bytes(schedule) -> bytes:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True).encode()


@SEARCH_KERNELS
@settings(max_examples=80, deadline=None)
@given(
    instance=instances(),
    cap_scale=st.one_of(st.none(), st.floats(min_value=0.5, max_value=3.0)),
)
def test_warm_hint_replay_identity(kernel, instance, cap_scale):
    """A hint at the cold capacity replays the cold search exactly."""
    ram = None
    if cap_scale is not None:
        biggest = max(job.input_kb for job in instance.jobs)
        ram = RamConstraint(
            {
                phone.phone_id: max(biggest * cap_scale, MIN_PARTITION_KB)
                for phone in instance.phones
            }
        )
    try:
        cold = CapacitySearch(kernel=kernel, ram=ram).run(instance)
    except InfeasibleScheduleError:
        return  # an atomic job fits no phone's RAM: nothing to replay
    warm = CapacitySearch(kernel=kernel, ram=ram).run(
        instance, warm_hint_ms=cold.capacity_ms
    )
    assert warm.capacity_ms == cold.capacity_ms
    assert _bytes(warm.schedule) == _bytes(cold.schedule)
    assert warm.cold_reruns == 0


@KERNELS
@settings(max_examples=100, deadline=None)
@given(case=instance_and_capacities())
def test_certificate_soundness(packer_cls, case):
    """The search's certificates never contradict a real pack.

    Probes at the search's own decision points: a capacity the floors
    or the fleet-fill test reject (after the search's safety margin)
    must fail to pack, and one the feasibility threshold accepts must
    pack.  The largest capacity the fleet-fill test rejects is found by
    bisection (its per-job reach only grows with capacity) and probed.
    """
    instance, capacities = case
    single_floor, volume = _certificate_floors(instance, MIN_PARTITION_KB)
    floor = max(single_floor, volume / len(instance.phones))
    threshold = _greedy_feasibility_threshold(
        instance, MIN_PARTITION_KB, None
    )
    fleet_fill = _fleet_fill_certificate(instance)

    def pad(capacity):
        return capacity * (1.0 + _CERT_MARGIN) + _CERT_MARGIN

    probes = list(capacities)
    probes.append((floor - _CERT_MARGIN) / (1.0 + _CERT_MARGIN) * 0.999999)
    if fleet_fill is not None and fleet_fill(0.0):
        rejected, accepted = 0.0, max(capacity_bounds(instance)[1], 1.0)
        for _ in range(60):
            mid = (rejected + accepted) / 2.0
            if fleet_fill(pad(mid)):
                rejected = mid
            else:
                accepted = mid
        probes.append(rejected)
    if threshold is not None:
        probes.append(
            (threshold + _CERT_MARGIN) / (1.0 - _CERT_MARGIN) * 1.000001
        )
        probes.append(2.0 * threshold + 1.0)
    packer = packer_cls(instance)
    for capacity in probes:
        padded = pad(capacity)
        if (
            padded < single_floor
            or len(instance.phones) * padded < volume
            or (fleet_fill is not None and fleet_fill(padded))
        ):
            assert not packer.pack(capacity).feasible, capacity
        if threshold is not None and (
            capacity * (1.0 - _CERT_MARGIN) - _CERT_MARGIN >= threshold
        ):
            assert packer.pack(capacity).feasible, capacity


@KERNELS
def test_atomic_all_or_nothing_at_tight_capacity(packer_cls):
    """An atomic job never appears split, feasible or not."""
    phones = (PhoneSpec(phone_id="p0", cpu_mhz=500.0),)
    job = Job("a0", "t", JobKind.ATOMIC, 10.0, 100.0)
    instance = SchedulingInstance(
        jobs=(job,),
        phones=phones,
        b_ms_per_kb={"p0": 1.0},
        c_ms_per_kb={("p0", "a0"): 2.0},
    )
    packer = packer_cls(instance)
    full_cost = 10.0 * 1.0 + 100.0 * 3.0
    assert not packer.pack(full_cost * 0.999).feasible
    result = packer.pack(full_cost * 1.001)
    assert result.feasible
    (assignment,) = result.schedule.assignments
    assert assignment.input_kb == 100.0


@KERNELS
def test_min_partition_floor_respected(packer_cls):
    """No breakable partition below the packer's granularity."""
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=500.0) for i in range(3)
    )
    job = Job("b0", "t", JobKind.BREAKABLE, 5.0, 90.0)
    instance = SchedulingInstance(
        jobs=(job,),
        phones=phones,
        b_ms_per_kb={p.phone_id: 1.0 for p in phones},
        c_ms_per_kb={(p.phone_id, "b0"): 2.0 for p in phones},
    )
    packer = packer_cls(instance, min_partition_kb=30.0)
    lower, upper = capacity_bounds(instance)
    for k in range(10):
        capacity = lower + (upper * 1.1 - lower) * k / 9.0
        result = packer.pack(capacity)
        if result.feasible:
            for assignment in result.schedule.assignments:
                assert assignment.input_kb >= 30.0 - 1e-9


# ---------------------------------------------------------------------------
# pluggable policies
# ---------------------------------------------------------------------------


POLICIES = pytest.mark.parametrize(
    "policy_name",
    ["cwc-greedy", "replication", "energy-aware", "shortest-expected"],
)


@POLICIES
@settings(max_examples=60, deadline=None)
@given(case=instances())
def test_every_policy_yields_valid_deterministic_schedules(
    policy_name, case
):
    """All pluggable policies uphold the packer's core contract.

    On arbitrary generated instances every policy must (a) produce a
    schedule that passes full validation — every byte covered exactly
    once, atomic jobs whole — (b) be deterministic, and (c) only ask
    for replicas of whole-job assignments on phones that did not
    already run the job.
    """
    from repro.core.policies import make_policy
    from repro.core.policies.base import whole_assignments

    policy = make_policy(policy_name)
    schedule = policy.schedule(case)
    schedule.validate(case)
    again = make_policy(policy_name).schedule(case)
    assert schedule_to_dict(schedule) == schedule_to_dict(again)

    whole = set(whole_assignments(schedule))
    placed = {
        (phone_id, a.job_id)
        for phone_id in schedule.phone_ids
        for a in schedule.for_phone(phone_id)
    }
    for directive in policy.last_replicas:
        # The replicated job must be placed whole somewhere...
        assert any(j == directive.job_id for _, j in whole)
        # ...and the replica target must not already run it.
        assert (directive.phone_id, directive.job_id) not in placed
        assert directive.phone_id in {p.phone_id for p in case.phones}

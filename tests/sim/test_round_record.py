"""RoundRecord reads its search diagnostics from the scheduler's result.

Each round keeps the scheduler's ``last_result`` as ``record.search``;
``capacity_ms``, ``kernel``, ``warm_started``, ``packer_passes`` and
``bisection_steps`` are derived from it, with fixed defaults for
policies that run no capacity search.
"""

import pytest

from repro.core.greedy import CwcScheduler
from repro.core.policies import make_policy
from repro.core.sharding import ShardedScheduler, ShardedSearchResult
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.server import CentralServer

from .test_warm_start import make_batch, make_setup

#: RoundRecord property -> CapacitySearchResult field it derives from.
DERIVED = {
    "capacity_ms": "capacity_ms",
    "kernel": "kernel",
    "warm_started": "warm_start_used",
    "packer_passes": "packer_passes",
    "bisection_steps": "bisection_steps",
}


def run(scheduler):
    """Two waves, then a phone failure in the second round: three
    scheduling rounds for the capacity-search schedulers."""
    phones, truth, predictor, b = make_setup()
    server = CentralServer(
        phones,
        truth,
        predictor,
        scheduler,
        b,
        failure_plan=FailurePlan([PlannedFailure("p1", 20000.0, online=True)]),
    )
    arrivals = [(10.0 + i, job) for i, job in enumerate(make_batch("w2-"))]
    return server.run(make_batch("w1-"), arrivals=arrivals)


def assert_derived_from_search(record):
    for prop, field in DERIVED.items():
        assert getattr(record, prop) == getattr(record.search, field), prop


def test_warm_started_rounds_read_their_own_search():
    scheduler = CwcScheduler(warm_start=True)
    result = run(scheduler)
    assert len(result.rounds) >= 3
    for record in result.rounds:
        assert record.search is not None
        assert_derived_from_search(record)
    # Each round keeps its own search, not the scheduler's latest.
    searches = [record.search for record in result.rounds]
    assert len({id(search) for search in searches}) == len(searches)
    assert searches[-1] is scheduler.last_result
    assert any(record.warm_started for record in result.rounds[1:])


def test_sharded_rounds_read_the_sharded_result():
    result = run(ShardedScheduler(pods=2, pod_workers=None))
    assert len(result.rounds) >= 2
    for record in result.rounds:
        assert isinstance(record.search, ShardedSearchResult)
        assert_derived_from_search(record)


@pytest.mark.parametrize("policy", ["energy-aware", "shortest-expected"])
def test_searchless_policy_reads_the_defaults(policy):
    result = run(make_policy(policy))
    assert result.rounds
    for record in result.rounds:
        assert record.search is None
        assert record.capacity_ms == 0.0
        assert record.kernel == ""
        assert record.warm_started is False
        assert record.packer_passes == 0
        assert record.bisection_steps == 0

"""The server's RoundRecord carries sharding context end to end."""

from repro.core.capacity import CapacitySearchResult
from repro.core.greedy import CwcScheduler
from repro.core.sharding import ShardedScheduler
from repro.sim.server import CentralServer

from .test_server import make_jobs, make_setup


def test_round_record_defaults_for_monolithic_scheduler():
    phones, truth, predictor, b = make_setup()
    server = CentralServer(phones, truth, predictor, CwcScheduler(), b)
    result = server.run(make_jobs())
    search = result.rounds[0].search
    # A monolithic search carries no sharding context at all.
    assert type(search) is CapacitySearchResult
    assert not hasattr(search, "pods")


def test_round_record_reports_sharding_context():
    phones, truth, predictor, b = make_setup(n_phones=8)
    scheduler = ShardedScheduler(pods=2, pod_workers=None)
    server = CentralServer(phones, truth, predictor, scheduler, b)
    result = server.run(make_jobs(n_breakable=6, n_atomic=2))
    search = result.rounds[0].search
    assert search.pods == 2
    assert search.pod_solve_ms_max > 0.0
    assert search.pod_solve_ms_sum >= search.pod_solve_ms_max
    assert search.shard_bound_ratio >= 1.0 - 1e-9
    assert len(result.unfinished_jobs) == 0


def test_campaign_threads_sharding_knobs():
    from repro.sim.campaign import ContinuousCampaign

    plain = ContinuousCampaign(seed=31)
    assert isinstance(plain._scheduler, CwcScheduler)
    sharded = ContinuousCampaign(
        seed=31, pods=2, pod_workers=None
    )
    assert isinstance(sharded._scheduler, ShardedScheduler)
    result = sharded.run(1)
    assert result.total_submitted > 0


def test_round_record_sharded_pods1_reports_monolithic_context():
    phones, truth, predictor, b = make_setup()
    scheduler = ShardedScheduler(pods=1)
    server = CentralServer(phones, truth, predictor, scheduler, b)
    result = server.run(make_jobs())
    search = result.rounds[0].search
    assert search.pods == 1
    # Monolithic delegation still reports a diagnostic ratio.
    assert search.shard_bound_ratio > 0.0

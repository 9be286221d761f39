"""What each per-layer metric should move, written down before measuring.

``BENCHMARK.json`` declares each per-layer metric's unit and direction
only.  This table adds the workloads where the layer does work and the
end-to-end metrics a change to that layer should move there.  On every
other workload, the prediction for those end-to-end metrics is no change.
``perfbench/tests/test_layers.py`` keeps the table in step with
``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import NamedTuple

COLD, SHARDED, NIGHT = "fleet-cold", "fleet-sharded", "night-chaos"
FLEETS = (COLD, SHARDED)
ALL = (COLD, SHARDED, NIGHT)


class Layer(NamedTuple):
    workloads: tuple[str, ...]
    moves: tuple[str, ...]
    note: str = ""


SPEED = ("sched_p50_ms", "jobs_per_s")

LAYERS = {
    "core.instance.build_ms": Layer(FLEETS, SPEED),
    "core.capacity.bounds_ms": Layer((COLD,), SPEED),
    "core.capacity.search_ms": Layer((COLD,), SPEED),
    "core.capacity.packs": Layer(
        ALL, ("sched_p50_ms",), "packs x pack_ms moves fleet-cold only"
    ),
    "core.capacity.bisection_steps": Layer(ALL, ("sched_p50_ms",)),
    "core.capacity.cert_skips": Layer(ALL, ("sched_p50_ms",)),
    "core.packing.pack_ms": Layer(
        (COLD,), SPEED, "numpy kernel; night-chaos runs the scalar kernel"
    ),
    "core.sharding.schedule_ms": Layer((SHARDED,), SPEED),
    "core.pod.solve_ms_max": Layer((SHARDED,), ("sched_p50_ms",)),
    "core.pod.solve_ms_sum": Layer(
        (SHARDED,), ("sched_p50_ms",), "serial-equivalent pod cost"
    ),
    "core.sharding.off_pod_ms": Layer(
        (SHARDED,),
        ("sched_p50_ms",),
        "split, rebalance, assemble, LP certificate and pool start",
    ),
    "core.sharding.rebalance_moves": Layer((SHARDED,), ("makespan_ms",)),
    "core.lp_bound.bound_ratio": Layer((SHARDED,), ("makespan_ms",)),
    "core.greedy.calls": Layer((NIGHT,), ("jobs_per_s",)),
    "core.greedy.busy_frac": Layer((NIGHT,), ("jobs_per_s", "sched_tail_ms")),
    "core.capacity.packs_per_round": Layer(
        (NIGHT,), ("jobs_per_s", "sched_tail_ms")
    ),
    "core.capacity.warm_used_frac": Layer((NIGHT,), ("sched_p50_ms",)),
    "sim.server.self_ms": Layer((NIGHT,), ("jobs_per_s", "sched_tail_ms")),
    "sim.server.dispatches": Layer(
        (NIGHT,), ("turnaround_p50_ms", "turnaround_tail_ms")
    ),
    "sim.server.retries": Layer(
        (NIGHT,),
        ("turnaround_p50_ms", "turnaround_tail_ms"),
        "exact per seed: a pure speed change leaves it equal",
    ),
    "sim.server.speculations": Layer(
        (NIGHT,),
        ("turnaround_p50_ms", "turnaround_tail_ms"),
        "exact per seed: a pure speed change leaves it equal",
    ),
    "sim.server.failures_detected": Layer(
        (NIGHT,), ("turnaround_tail_ms",), "exact per seed"
    ),
    "sim.server.useful_work_frac": Layer(
        (NIGHT,),
        ("turnaround_p50_ms", "turnaround_tail_ms"),
        "1 - wasted work fraction; exact per seed",
    ),
    "obs.tracing.overhead_frac": Layer(
        ALL, (), "end-to-end runs are untraced, so it should move none"
    ),
}

"""Pluggable scheduling policies and their registry.

``make_policy(name)`` is the single constructor the simulator, the
scenario fuzzer, the continuous campaign, and the tournament harness
share; ``POLICY_NAMES`` is the closed set of competitors.  The default
policy *is* :class:`~repro.core.greedy.CwcScheduler` — requesting
``"cwc-greedy"`` returns the exact scheduler every previous release
ran, so default-policy schedules (and therefore the fuzz digests and
the differential harness) stay byte-identical.
"""

from __future__ import annotations

from ..greedy import CwcScheduler
from .base import ReplicaDirective, SchedulingPolicy
from .energy import (
    EnergyAwarePolicy,
    assignment_energy_j,
    phone_cpu_draw_w,
    run_energy_joules,
)
from .replication import ReplicationPolicy
from .sec import ShortestExpectedCompletionPolicy

__all__ = [
    "DEFAULT_POLICY",
    "POLICY_NAMES",
    "EnergyAwarePolicy",
    "ReplicaDirective",
    "ReplicationPolicy",
    "SchedulingPolicy",
    "ShortestExpectedCompletionPolicy",
    "assignment_energy_j",
    "make_policy",
    "phone_cpu_draw_w",
    "run_energy_joules",
]

#: The policy whose schedules are pinned byte-identical across releases.
DEFAULT_POLICY = "cwc-greedy"

#: Every known policy, default first.
POLICY_NAMES = (
    DEFAULT_POLICY,
    "replication",
    "energy-aware",
    "shortest-expected",
)


#: Capacity-search knobs that only make sense for the CWC-backed
#: policies; searchless policies accept and ignore them so one call
#: site (e.g. the scenario->server mapping) can thread its scheduler
#: configuration through ``make_policy`` uniformly.
_SEARCH_ONLY_KWARGS = frozenset(
    {
        "kernel",
        "warm_start",
        "epsilon_ms",
        "min_partition_kb",
        "max_iterations",
        "ram",
    }
)


def make_policy(
    name: str,
    *,
    unreliable=(),
    telemetry=None,
    **kwargs,
) -> SchedulingPolicy:
    """Construct a policy by registry name.

    ``unreliable`` (phone ids to distrust) only reaches the
    replication policy.  Capacity-search knobs (``kernel``,
    ``warm_start``, ``epsilon_ms``, ...) configure the CWC-backed
    policies and are ignored by the searchless ones; any *other*
    unknown keyword is rejected by the policy's constructor.
    """
    if name == DEFAULT_POLICY:
        return CwcScheduler(telemetry=telemetry, **kwargs)
    if name == "replication":
        return ReplicationPolicy(
            unreliable=unreliable, telemetry=telemetry, **kwargs
        )
    searchless = {
        key: value
        for key, value in kwargs.items()
        if key not in _SEARCH_ONLY_KWARGS
    }
    if name == "energy-aware":
        return EnergyAwarePolicy(telemetry=telemetry, **searchless)
    if name == "shortest-expected":
        return ShortestExpectedCompletionPolicy(
            telemetry=telemetry, **searchless
        )
    raise ValueError(
        f"unknown scheduling policy {name!r}; known policies: "
        f"{', '.join(POLICY_NAMES)}"
    )

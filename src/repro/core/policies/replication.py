"""Replication-aware policy: duplicate at-risk whole jobs up front.

PR 1's resilience layer reacts to churn — a straggler watchdog fires,
*then* a speculative backup launches.  Under high churn the reaction
is the problem: by the time the watchdog or keep-alive probe notices,
the partition has already lost minutes.  Following the
replication/timing policies for stochastic jobs on unreliable workers
(Hsu–Huang–Shieh, PAPERS.md), this policy schedules exactly like CWC
greedy — the packing is byte-identical to
:class:`~repro.core.greedy.CwcScheduler` — but additionally asks the
server to launch proactive backups of whole jobs whose primary landed
on a phone it distrusts.  The duplicates ride the server's existing
first-result-wins machinery, so work is still credited exactly once
and the conservation invariants hold unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..greedy import CwcScheduler
from ..instance import SchedulingInstance
from ..schedule import Schedule
from .base import ReplicaDirective

__all__ = ["ReplicationPolicy"]


class ReplicationPolicy:
    """CWC greedy packing plus proactive replica directives.

    Parameters
    ----------
    unreliable:
        Phone ids the policy distrusts (e.g. phones named by a chaos
        plan, or phones with a poor historical completion rate).  When
        empty, *every* phone is treated as at-risk — the policy then
        replicates the most exposed whole jobs across the fleet.
    replication_factor:
        Proactive copies requested per at-risk whole job (>= 1).
    max_replicas:
        Hard cap on directives per round; ``None`` defaults to one
        directive per phone in the instance, which bounds the redundant
        load at roughly one extra queue slot per phone.
    **scheduler_kwargs:
        Forwarded verbatim to the inner
        :class:`~repro.core.greedy.CwcScheduler` (kernel, warm_start,
        telemetry, ...), so the base schedules stay byte-identical to
        the default policy under every hot-path configuration.
    """

    name = "replication"

    def __init__(
        self,
        *,
        unreliable: Iterable[str] = (),
        replication_factor: int = 1,
        max_replicas: int | None = None,
        **scheduler_kwargs,
    ) -> None:
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor!r}"
            )
        if max_replicas is not None and max_replicas < 0:
            raise ValueError(
                f"max_replicas must be >= 0, got {max_replicas!r}"
            )
        self._base = CwcScheduler(**scheduler_kwargs)
        self._unreliable = frozenset(str(p) for p in unreliable)
        self._factor = int(replication_factor)
        self._max_replicas = max_replicas
        self._last_replicas: tuple[ReplicaDirective, ...] = ()

    def schedule(self, instance: SchedulingInstance) -> Schedule:
        """CWC-greedy schedule plus replica directives for this round."""
        schedule = self._base.schedule(instance)
        self._last_replicas = self._plan_replicas(instance, schedule)
        return schedule

    # -- delegated diagnostics (RoundRecord reads these duck-typed) -------

    @property
    def last_result(self):
        """The inner capacity search's diagnostics."""
        return self._base.last_result

    @property
    def last_replicas(self) -> tuple[ReplicaDirective, ...]:
        """Replica directives attached to the most recent round."""
        return self._last_replicas

    def reset_warm_state(self) -> None:
        self._base.reset_warm_state()

    def warm_state(self) -> dict:
        return self._base.warm_state()

    def restore_warm_state(self, state: dict) -> None:
        self._base.restore_warm_state(state)

    # -- replica planning --------------------------------------------------

    def _plan_replicas(
        self, instance: SchedulingInstance, schedule: Schedule
    ) -> tuple[ReplicaDirective, ...]:
        phones = instance.phones
        if len(phones) < 2:
            return ()
        # At-risk whole assignments, most exposed (costliest) first.
        candidates: list[tuple[float, str, str]] = []
        for phone in phones:
            at_risk = (
                not self._unreliable or phone.phone_id in self._unreliable
            )
            if not at_risk:
                continue
            for assignment in schedule.for_phone(phone.phone_id):
                if not assignment.whole:
                    continue
                candidates.append(
                    (
                        instance.cost(phone.phone_id, assignment.job_id),
                        assignment.job_id,
                        phone.phone_id,
                    )
                )
        if not candidates:
            return ()
        candidates.sort(key=lambda entry: (-entry[0], entry[1]))

        budget = (
            self._max_replicas
            if self._max_replicas is not None
            else len(phones)
        )
        # Projected finish per phone: schedule load plus replicas already
        # planned this round, so directives spread instead of piling up.
        projected = {
            phone.phone_id: schedule.predicted_finish_ms(
                instance, phone.phone_id
            )
            for phone in phones
        }
        reliable = [
            phone.phone_id
            for phone in phones
            if phone.phone_id not in self._unreliable
        ]
        directives: list[ReplicaDirective] = []
        for _cost, job_id, primary in candidates:
            if len(directives) >= budget:
                break
            taken = {primary}
            for _copy in range(self._factor):
                if len(directives) >= budget:
                    break
                target = self._pick_target(
                    instance, job_id, taken, reliable, projected
                )
                if target is None:
                    break
                taken.add(target)
                projected[target] += instance.cost(target, job_id)
                directives.append(
                    ReplicaDirective(phone_id=target, job_id=job_id)
                )
        return tuple(directives)

    def _pick_target(
        self,
        instance: SchedulingInstance,
        job_id: str,
        taken: set[str],
        reliable: list[str],
        projected: dict[str, float],
    ) -> str | None:
        """Least-finishing eligible phone; reliable phones preferred."""
        pools = (
            [pid for pid in reliable if pid not in taken],
            [
                phone.phone_id
                for phone in instance.phones
                if phone.phone_id not in taken
            ],
        )
        for pool in pools:
            if not pool:
                continue
            return min(
                pool,
                key=lambda pid: (
                    projected[pid] + instance.cost(pid, job_id),
                    instance.phone_position(pid),
                ),
            )
        return None

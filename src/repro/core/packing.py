"""Algorithm 1: greedy packing for the complementary bin-packing problem.

The paper attacks the NP-hard makespan problem SCH through its
complementary bin-packing problem (CBP): pack all job inputs into at
most ``|P|`` bins (phones) of capacity ``C`` (milliseconds of predicted
work, Equation 1), minimising the maximum bin height.  This module
implements the inner loop — *can all items be packed with capacity
``C``?* — exactly as Algorithm 1 prescribes:

1. keep items sorted in decreasing order of remaining local execution
   time ``R_j * c_sj`` on the slowest phone ``s``;
2. repeatedly find the *first* (largest) item that fits in any opened
   bin and pack it into the minimum-height bin that accepts it,
   preferring to pack the item whole and otherwise packing the largest
   partition that fits;
3. when nothing fits, open the bin (phone) that would run the largest
   item with the smallest Equation-1 cost;
4. fail if items remain and no bin can be opened.

Cost accounting matches program SCH: a phone pays the executable
shipping cost ``E_j * b_i`` only for the *first* partition of job ``j``
it receives (``u_ij`` is an indicator variable).

Atomic jobs are never partitioned — they either fit whole or the
capacity is infeasible.  Breakable jobs are never split below
``MIN_PARTITION_KB`` (the cost model's own unit of account), which also
guarantees termination of the packing loop.

Hot-path structure
------------------
The placement loop is the innermost loop of the whole system — the
capacity bisection calls :meth:`GreedyPacker.pack` dozens of times per
scheduling instant — so this implementation avoids the naive
O(items × bins) rescan per placement without changing a single packing
decision:

* **dense costs** — ``b_i``, ``c_sj`` and ``b_i + c_ij`` come from the
  instance's position-indexed arrays, not per-call dict chains;
* **min-height bin index** — opened bins are kept sorted by
  ``(height, phone_id)``; scanning that order and taking the *first*
  bin that accepts an item yields exactly the minimum-height fitting
  bin Algorithm 1 asks for, usually after probing one or two bins;
* **incremental item keys** — only the item just split changes its sort
  key, so it alone is re-inserted (``bisect.insort``) instead of
  re-keying and re-sorting the whole list;
* **vectorized bin opening** — Line 15's minimum-Equation-1-cost
  phone comes from one array gather over the unopened phone positions
  (elementwise float64, bit-identical to the scalar expression) with
  a precomputed phone-id rank for ties, instead of a Python ``min``
  over one cost closure per unopened phone; the vectorized kernel
  inherits it and only adds its mirror bookkeeping;
* **failure marks** — once an item fails to fit in every opened bin it
  is skipped until something that could change that verdict happens.
  Bin heights only ever grow, and a bin's shipped-executable set only
  affects the fit of its own job (whose mark is cleared the moment the
  item shrinks), so the only event that can turn "fits nowhere" into
  "fits somewhere" is a *new* bin opening — marks are therefore epoch
  stamps invalidated by bin openings.

``tests/core/test_golden_schedule.py`` pins this packer to the frozen
pre-optimisation reference (:mod:`repro.core._reference`) schedule for
byte-for-byte equality.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from .instance import SchedulingInstance
from .model import MIN_PARTITION_KB, Job
from .schedule import Schedule, ScheduleBuilder

__all__ = ["GreedyPacker", "PackingResult"]


@dataclass(slots=True)
class _Item:
    """A job together with the input that is still unpacked."""

    job: Job
    job_pos: int
    remaining_kb: float
    #: Sort key: remaining execution time on the slowest phone.
    key_ms: float = field(default=0.0)
    #: Epoch (bin-opening count) at which this item last failed to fit
    #: in every opened bin; -1 means "unknown, must be probed".
    failed_epoch: int = field(default=-1)

    @property
    def is_whole(self) -> bool:
        return math.isclose(self.remaining_kb, self.job.input_kb)


@dataclass(slots=True)
class _Bin:
    """One opened phone: its accumulated height and shipped executables."""

    phone_id: str
    phone_pos: int
    height_ms: float = 0.0
    shipped_jobs: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class PackingResult:
    """Outcome of one packing attempt at a fixed capacity."""

    feasible: bool
    capacity_ms: float
    schedule: Schedule | None = None
    max_height_ms: float = 0.0
    opened_bins: int = 0


def _item_key(item: _Item) -> tuple[float, str]:
    return (-item.key_ms, item.job.job_id)


def _bin_key(bin_: _Bin) -> tuple[float, str]:
    return (bin_.height_ms, bin_.phone_id)


class GreedyPacker:
    """Runs Algorithm 1 at a fixed bin capacity.

    Parameters
    ----------
    instance:
        The scheduling instance (jobs, phones, ``b_i``, ``c_ij``).
    min_partition_kb:
        Smallest breakable-job partition the packer will create.
    """

    def __init__(
        self,
        instance: SchedulingInstance,
        *,
        min_partition_kb: float = MIN_PARTITION_KB,
        ram=None,
    ) -> None:
        if min_partition_kb <= 0:
            raise ValueError("min_partition_kb must be > 0")
        self._instance = instance
        self._min_partition_kb = min_partition_kb
        #: Optional RamConstraint (footnote 4: l_ij <= r_i).
        self._ram = ram
        self._slowest_id = instance.slowest_phone().phone_id
        # Dense, position-indexed views shared with the instance.
        self._b = instance.b_vector()
        self._per_kb_rows = instance.per_kb_rows()
        self._c_slowest = instance.c_row(
            instance.phone_position(self._slowest_id)
        )
        # Fleet-wide best (smallest) per-KB rate per job.  Taking a
        # minimum involves no arithmetic, so numpy is exact here; the
        # values feed the *conservative* height cutoffs below, which
        # only ever skip bins that would certainly reject an item.
        self._min_per_kb = instance.per_kb_matrix().min(axis=0).tolist()
        # The cheapest placement any item could ever need: the smallest
        # first-partition at the fleet's best rate.  Once every opened
        # bin is fuller than (capacity - this), no placement can happen.
        self._universal_min_need = min(
            (
                min(job.input_kb, min_partition_kb)
                * self._min_per_kb[pos]
                * (1.0 - 1e-9)
                for pos, job in enumerate(instance.jobs)
            ),
            default=0.0,
        )
        # Line-15 bin opening works on arrays: the unopened phones are
        # an ``intp`` position buffer (the first ``_un_n`` entries),
        # and Equation-1 costs are gathered from the job-major per-KB
        # matrix, cached on the instance so every packer built on it
        # (rounds, pods, both kernels) shares one copy.
        n_phones = len(instance.phones)
        self._b_arr = instance.b_array()
        self._pkb_t = instance.per_kb_matrix_t()
        self._phone_ids = [phone.phone_id for phone in instance.phones]
        #: Lexicographic rank of each phone_id; equal-cost ties in bin
        #: opening resolve by smallest rank == smallest phone_id.
        ranks = np.empty(n_phones, dtype=np.intp)
        ranks[sorted(range(n_phones), key=self._phone_ids.__getitem__)] = (
            np.arange(n_phones, dtype=np.intp)
        )
        self._id_rank = ranks
        self._unopened0 = np.arange(n_phones, dtype=np.intp)
        self._un_buf = np.empty(n_phones, dtype=np.intp)
        self._un_n = 0
        self._open_cost_buf = np.empty(n_phones)
        self._open_exe_buf = np.empty(n_phones)

    # -- public API --------------------------------------------------------

    def pack(self, capacity_ms: float) -> PackingResult:
        """Attempt to pack every job within bins of ``capacity_ms``."""
        if capacity_ms <= 0:
            return PackingResult(feasible=False, capacity_ms=capacity_ms)

        instance = self._instance
        c_s = self._c_slowest
        items = [
            _Item(
                job=job,
                job_pos=pos,
                remaining_kb=job.input_kb,
                key_ms=job.input_kb * c_s[pos],
            )
            for pos, job in enumerate(instance.jobs)
        ]
        items.sort(key=_item_key)
        #: Opened bins, always sorted by (height_ms, phone_id).
        bins: list[_Bin] = []
        self._un_buf[:] = self._unopened0
        self._un_n = len(self._un_buf)
        #: Bin-opening epoch; bumping it invalidates all failure marks.
        epoch = 0
        builder = ScheduleBuilder()

        while items:
            if self._pack_into_opened(items, bins, epoch, builder, capacity_ms):
                continue
            if not self._un_n:
                return PackingResult(feasible=False, capacity_ms=capacity_ms)
            opened = self._open_bin_for(items[0], bins, capacity_ms)
            if opened is None:
                return PackingResult(feasible=False, capacity_ms=capacity_ms)
            epoch += 1
            # Pack the largest item into the bin just opened.
            if not self._pack_item_into_bin(
                items, 0, opened, bins, builder, capacity_ms
            ):
                # The bin was chosen because the item fits there, so this
                # only happens if no unopened bin accepts the item at all.
                return PackingResult(feasible=False, capacity_ms=capacity_ms)

        max_height = max((b.height_ms for b in bins), default=0.0)
        return PackingResult(
            feasible=True,
            capacity_ms=capacity_ms,
            schedule=builder.build(),
            max_height_ms=max_height,
            opened_bins=len(bins),
        )

    # -- internals -----------------------------------------------------------

    def _exe_cost(self, bin_: _Bin, job: Job) -> float:
        """Executable shipping cost, zero if this bin already holds it."""
        if job.job_id in bin_.shipped_jobs:
            return 0.0
        return job.executable_kb * self._b[bin_.phone_pos]

    def _fit_kb(self, bin_: _Bin, item: _Item, capacity_ms: float) -> float:
        """Largest partition of ``item`` that fits in ``bin_`` (0 if none).

        For atomic items the answer is all-or-nothing.  For breakable
        items, the returned size is capped at the remaining input and
        floored at the minimum partition granularity.
        """
        job = item.job
        headroom = capacity_ms - bin_.height_ms - self._exe_cost(bin_, job)
        if headroom <= 0:
            return 0.0
        per_kb = self._per_kb_rows[bin_.phone_pos][item.job_pos]
        if per_kb <= 0:  # free transfer and compute: everything fits
            max_kb = item.remaining_kb
        else:
            max_kb = headroom / per_kb
        if self._ram is not None:
            # Footnote 4: a partition must fit in the phone's memory.
            max_kb = self._ram.clamp_fit(bin_.phone_id, max_kb)
            if job.is_atomic and max_kb < item.remaining_kb:
                return 0.0
        # Tolerate one part in 10^9 so exact-fit capacities (e.g. the
        # search's upper bound) are not rejected by rounding error.
        if max_kb >= item.remaining_kb * (1.0 - 1e-9):
            return item.remaining_kb
        if job.is_atomic:
            return 0.0
        if max_kb < self._min_partition_kb:
            return 0.0
        # Never leave a sliver smaller than the granularity behind.
        if item.remaining_kb - max_kb < self._min_partition_kb:
            max_kb = item.remaining_kb - self._min_partition_kb
            if max_kb < self._min_partition_kb:
                return 0.0
        return max_kb

    def _pack_into_opened(
        self,
        items: list[_Item],
        bins: list[_Bin],
        epoch: int,
        builder: ScheduleBuilder,
        capacity_ms: float,
    ) -> bool:
        """Line 4: first item in L that fits in any opened bin.

        Packs it into the minimum-height bin that accepts it and returns
        True; returns False when no (item, opened bin) pair fits.  Items
        whose failure mark is current are skipped without re-probing —
        nothing that happened since can have made them fit (see module
        docstring).  ``bins`` is sorted by ``(height, phone_id)``, so
        the first bin that accepts an item *is* Algorithm 1's
        minimum-height fitting bin.
        """
        if not bins:
            return False
        # Global cutoff: the emptiest bin cannot host even the cheapest
        # conceivable placement — nothing fits, skip the whole scan.
        if bins[0].height_ms > capacity_ms - self._universal_min_need:
            return False
        min_partition = self._min_partition_kb
        min_per_kb = self._min_per_kb
        for index, item in enumerate(items):
            if item.failed_epoch == epoch:
                continue
            # Per-item cutoff: accepting this item needs headroom of at
            # least its smallest legal placement at the fleet's best
            # rate (executable cost >= 0 ignored — conservative).  Bins
            # are sorted by height, so past the cutoff every remaining
            # bin certainly rejects and the old full scan would have
            # returned no candidates for them anyway.
            x = item.remaining_kb
            if not item.job.is_atomic and x > min_partition:
                x = min_partition
            h_max = capacity_ms - x * min_per_kb[item.job_pos] * (1.0 - 1e-9)
            fitted = None
            for bin_ in bins:
                if bin_.height_ms > h_max:
                    break
                if self._fit_kb(bin_, item, capacity_ms) > 0:
                    fitted = bin_
                    break
            if fitted is not None:
                return self._pack_item_into_bin(
                    items, index, fitted, bins, builder, capacity_ms
                )
            item.failed_epoch = epoch
        return False

    def _pack_item_into_bin(
        self,
        items: list[_Item],
        index: int,
        bin_: _Bin,
        bins: list[_Bin],
        builder: ScheduleBuilder,
        capacity_ms: float,
    ) -> bool:
        """Pack items[index] (whole if possible) into ``bin_``."""
        item = items[index]
        job = item.job
        size_kb = self._fit_kb(bin_, item, capacity_ms)
        if size_kb <= 0:
            return False
        packed_whole_input = item.is_whole and math.isclose(
            size_kb, item.remaining_kb
        )
        cost = self._exe_cost(bin_, job) + size_kb * (
            self._per_kb_rows[bin_.phone_pos][item.job_pos]
        )
        # The bin's sort key is about to change: pull it out of the
        # sorted index and re-insert it at its new height.  Keys are
        # unique (phone_id breaks height ties), so bisect finds the bin.
        bin_index = bisect_left(bins, _bin_key(bin_), key=_bin_key)
        del bins[bin_index]
        bin_.height_ms += cost
        bin_.shipped_jobs.add(job.job_id)
        insort(bins, bin_, key=_bin_key)
        builder.place(
            bin_.phone_id,
            job.job_id,
            job.task,
            size_kb,
            whole=packed_whole_input,
        )
        if math.isclose(size_kb, item.remaining_kb):
            del items[index]  # line 8: packed as a whole (of what remained)
        else:
            # Line 10: reinsert the remainder.  Only this item's key
            # changed, so one insort restores the exact order a full
            # re-sort would produce (keys are unique — job_id ties).
            del items[index]
            item.remaining_kb -= size_kb
            item.key_ms = item.remaining_kb * self._c_slowest[item.job_pos]
            item.failed_epoch = -1
            insort(items, item, key=_item_key)
        return True

    def _open_bin_for(
        self, item: _Item, bins: list[_Bin], capacity_ms: float
    ) -> _Bin | None:
        """Line 15: open the best unopened bin for the largest item.

        The best bin is the phone that would run the item with the
        minimum Equation-1 cost ``E_j*b_i + rem*(b_i + c_ij)``, ties
        broken by smallest phone_id.  The costs are one gather over the
        unopened positions — elementwise float64, so each equals the
        scalar expression bit for bit.  If the item does not fit there
        (not even a minimum partition), the remaining unopened bins are
        tried in increasing ``(cost, phone_id)`` order before giving up.
        """
        n = self._un_n
        pos_arr = self._un_buf[:n]
        cost = self._open_cost_buf[:n]
        self._pkb_t[item.job_pos].take(pos_arr, out=cost)
        cost *= item.remaining_kb
        exe_part = self._open_exe_buf[:n]
        self._b_arr.take(pos_arr, out=exe_part)
        exe_part *= item.job.executable_kb
        cost += exe_part
        ties = np.flatnonzero(cost == cost.min())
        if ties.size == 1:
            k = int(ties[0])
        else:
            k = int(ties[int(np.argmin(self._id_rank[pos_arr[ties]]))])
        ids = self._phone_ids
        pos = int(pos_arr[k])
        candidate = _Bin(phone_id=ids[pos], phone_pos=pos)
        if self._fit_kb(candidate, item, capacity_ms) > 0:
            return self._admit_bin(candidate, k, bins)
        # The cheapest phone rejects: RAM, an atomic job too large, or
        # (ending most infeasible packs) a capacity no fresh bin meets.
        # Walk the rest in (cost, phone_id) order.
        costs = cost.tolist()
        entries = sorted(
            (costs[i], ids[p], i)
            for i, p in enumerate(pos_arr.tolist())
            if i != k
        )
        for _, phone_id, i in entries:
            fallback = _Bin(phone_id=phone_id, phone_pos=int(pos_arr[i]))
            if self._fit_kb(fallback, item, capacity_ms) > 0:
                return self._admit_bin(fallback, i, bins)
        return None

    def _admit_bin(self, bin_: _Bin, unopened_index: int, bins) -> _Bin:
        """Open ``bin_``: drop it from the unopened buffer, insort it."""
        un, n = self._un_buf, self._un_n
        un[unopened_index : n - 1] = un[unopened_index + 1 : n]
        self._un_n = n - 1
        insort(bins, bin_, key=_bin_key)
        return bin_

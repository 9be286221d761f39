"""Span aggregation: flamegraph-style self-time table + critical path.

Works on the plain-dict span form (what :meth:`Tracer.to_dicts`
returns and ``trace.json`` round-trips), so it can profile a live
tracer or a loaded artifact equally.

Self time is the flamegraph quantity: a span's duration minus the
summed durations of its *direct* children.  It answers "which phase
itself burns the time" rather than "which phase contains the time" —
``capacity_search`` contains everything, but its self time is only the
bisection bookkeeping between probes.

The critical path is the chain root → last-finishing child → ... whose
per-step contribution is ``span duration − chosen child duration``.
Contributions telescope: summed over the chain they equal the root's
duration exactly, which is what lets the sharded bench assert the
decomposition explains ≥95 % of ``solve_s`` (the <100 % residue is
only spans the tracer did not cover, never arithmetic).

Both aggregations take ``clock="wall"`` (default, seconds of real
time) or ``clock="sim"`` (sim milliseconds; spans without sim times
are skipped).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ProfileRow",
    "CriticalStep",
    "self_time_table",
    "critical_path",
    "render_profile_lines",
    "render_critical_path_lines",
]


def _duration_ms(span: dict, clock: str) -> float | None:
    if clock == "wall":
        return (span["end_wall_s"] - span["start_wall_s"]) * 1e3
    if clock == "sim":
        start = span.get("start_sim_ms")
        end = span.get("end_sim_ms")
        if start is None or end is None:
            return None
        return end - start
    raise ValueError(f"clock must be 'wall' or 'sim', got {clock!r}")


@dataclass(frozen=True)
class ProfileRow:
    """One aggregated line of the self-time table."""

    name: str
    category: str
    count: int
    total_ms: float
    self_ms: float
    max_ms: float


@dataclass(frozen=True)
class CriticalStep:
    """One span on the critical path with its exclusive contribution."""

    span_id: int
    name: str
    category: str
    process: str
    duration_ms: float
    contribution_ms: float


def self_time_table(spans, *, clock: str = "wall") -> list[ProfileRow]:
    """Aggregate spans by (name, category), sorted by self time desc.

    Self time never goes negative even when siblings overlap (the
    pod pool runs children concurrently, so their summed duration
    can exceed the parent's): it is floored at zero per span.
    """
    spans = list(spans)
    child_ms: dict[int, float] = {}
    for span in spans:
        dur = _duration_ms(span, clock)
        parent = span.get("parent_id")
        if dur is None or parent is None:
            continue
        child_ms[parent] = child_ms.get(parent, 0.0) + dur
    rows: dict[tuple[str, str], list[float]] = {}
    for span in spans:
        dur = _duration_ms(span, clock)
        if dur is None:
            continue
        self_ms = max(0.0, dur - child_ms.get(span["span_id"], 0.0))
        key = (span["name"], span.get("category", ""))
        agg = rows.setdefault(key, [0, 0.0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += self_ms
        agg[3] = max(agg[3], dur)
    out = [
        ProfileRow(
            name=name,
            category=category,
            count=agg[0],
            total_ms=agg[1],
            self_ms=agg[2],
            max_ms=agg[3],
        )
        for (name, category), agg in rows.items()
    ]
    out.sort(key=lambda r: (-r.self_ms, r.name))
    return out


def critical_path(
    spans, *, root_id: int | None = None, clock: str = "wall"
) -> list[CriticalStep]:
    """Descend from the root through the last-finishing child.

    ``root_id=None`` picks the longest parentless span.  Returns the
    chain with per-step exclusive contributions (telescoping to the
    root's duration).  Empty when no span qualifies under ``clock``.
    """
    spans = [s for s in spans if _duration_ms(s, clock) is not None]
    if not spans:
        return []
    by_id = {s["span_id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)

    def end_key(span: dict) -> tuple:
        if clock == "wall":
            return (span["end_wall_s"], span["span_id"])
        return (span["end_sim_ms"], span["span_id"])

    if root_id is None:
        roots = [s for s in spans if s.get("parent_id") not in by_id]
        root = max(roots, key=lambda s: (_duration_ms(s, clock), -s["span_id"]))
    else:
        if root_id not in by_id:
            raise ValueError(f"root span {root_id} not found")
        root = by_id[root_id]

    path: list[CriticalStep] = []
    node = root
    while True:
        dur = _duration_ms(node, clock)
        kids = children.get(node["span_id"], [])
        nxt = max(kids, key=end_key) if kids else None
        nxt_dur = _duration_ms(nxt, clock) if nxt is not None else 0.0
        path.append(
            CriticalStep(
                span_id=node["span_id"],
                name=node["name"],
                category=node.get("category", ""),
                process=node.get("process", "main"),
                duration_ms=dur,
                contribution_ms=max(0.0, dur - nxt_dur),
            )
        )
        if nxt is None:
            break
        node = nxt
    return path


def render_profile_lines(
    rows, *, top: int | None = None, clock: str = "wall"
) -> list[str]:
    """Fixed-width text table of :func:`self_time_table` rows."""
    rows = list(rows)
    if top is not None:
        rows = rows[:top]
    unit = "wall ms" if clock == "wall" else "sim ms"
    lines = [
        f"{'span':<28} {'category':<12} {'count':>7} "
        f"{'self ' + unit:>14} {'total ' + unit:>14} {'max ' + unit:>12}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row.name:<28} {row.category:<12} {row.count:>7} "
            f"{row.self_ms:>14.3f} {row.total_ms:>14.3f} {row.max_ms:>12.3f}"
        )
    return lines


def render_critical_path_lines(path, *, clock: str = "wall") -> list[str]:
    """Indented text rendering of a :func:`critical_path` chain."""
    unit = "wall ms" if clock == "wall" else "sim ms"
    lines = [f"critical path ({unit}; contribution = span minus chosen child):"]
    total = sum(step.contribution_ms for step in path)
    for depth, step in enumerate(path):
        lines.append(
            f"{'  ' * depth}{step.name} [{step.process}] "
            f"dur={step.duration_ms:.3f} contrib={step.contribution_ms:.3f}"
        )
    lines.append(f"total contribution: {total:.3f} {unit}")
    return lines

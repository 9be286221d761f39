"""Chrome trace-event export: ``trace.json`` for Perfetto / about:tracing.

Spans become ``"X"`` (complete) events with microsecond ``ts``/``dur``
and ``"M"`` (metadata) events naming processes and threads.  The
``process`` string on each span maps to the pid/tid pair: a span whose
process is ``"group/lane"`` (e.g. ``"pods/pod-3"``, ``"fleet/ph-12"``)
lands in pid *group*, tid *lane*; an unslashed process (``"main"``,
``"worker-1234"``) is its own single-lane pid.  That gives Perfetto
one swimlane per pod / phone.

Every event's ``args`` carries the full span record (ids, sim times,
status, attrs), so :func:`spans_from_chrome` reconstructs the exact
span dicts — ``trace.json`` is both the human artifact and the
round-trip storage format for :func:`repro.obs.report.load_run_report`.

``clock="wall"`` (default) lays events out on the real timeline,
rebased so the earliest span starts at ts 0 (the absolute base is kept
in ``otherData.wall_base_s``).  ``clock="sim"`` lays out only spans
carrying sim times, on the sim clock.
"""

from __future__ import annotations

import json
from pathlib import Path

from .tracing import validate_span_dict

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "spans_from_chrome",
]


def _lane(process: str) -> tuple[str, str]:
    group, sep, lane = process.partition("/")
    if not sep:
        return process, process
    return group, lane


def chrome_trace(spans, *, run_id: str = "", clock: str = "wall") -> dict:
    """Build the Chrome trace-event JSON object for ``spans``."""
    if clock not in ("wall", "sim"):
        raise ValueError(f"clock must be 'wall' or 'sim', got {clock!r}")
    spans = [dict(s) for s in spans]
    for span in spans:
        validate_span_dict(span)
    if clock == "sim":
        spans = [s for s in spans if s.get("start_sim_ms") is not None]

    wall_base = min((s["start_wall_s"] for s in spans), default=0.0)
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    events: list[dict] = []
    for span in sorted(spans, key=lambda s: s["span_id"]):
        group, lane = _lane(span.get("process", "main"))
        if group not in pids:
            pids[group] = len(pids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[group],
                    "tid": 0,
                    "args": {"name": group},
                }
            )
        pid = pids[group]
        if (group, lane) not in tids:
            tids[(group, lane)] = sum(1 for g, _ in tids if g == group) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tids[(group, lane)],
                    "args": {"name": lane},
                }
            )
        tid = tids[(group, lane)]
        if clock == "wall":
            ts_us = (span["start_wall_s"] - wall_base) * 1e6
            dur_us = (span["end_wall_s"] - span["start_wall_s"]) * 1e6
        else:
            ts_us = span["start_sim_ms"] * 1e3
            end_sim = span.get("end_sim_ms", span["start_sim_ms"])
            dur_us = (end_sim - span["start_sim_ms"]) * 1e3
        args = {
            "span_id": span["span_id"],
            "parent_id": span.get("parent_id"),
            "status": span.get("status", "ok"),
            "start_wall_s": span["start_wall_s"],
            "end_wall_s": span["end_wall_s"],
        }
        if span.get("start_sim_ms") is not None:
            args["start_sim_ms"] = span["start_sim_ms"]
        if span.get("end_sim_ms") is not None:
            args["end_sim_ms"] = span["end_sim_ms"]
        args.update(span.get("attrs", {}))
        events.append(
            {
                "ph": "X",
                "name": span["name"],
                "cat": span.get("category", "") or "span",
                "pid": pid,
                "tid": tid,
                "ts": ts_us,
                "dur": dur_us,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run_id": run_id,
            "clock": clock,
            "wall_base_s": wall_base,
            "span_count": len(spans),
        },
    }


def write_chrome_trace(
    path, spans, *, run_id: str = "", clock: str = "wall"
) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(spans, run_id=run_id, clock=clock)) + "\n"
    )
    return path


def load_chrome_trace(path) -> dict:
    """Load and structurally validate a ``trace.json`` artifact."""
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        raise ValueError(f"{path}: not a Chrome trace-event file")
    for event in data["traceEvents"]:
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"{path}: malformed trace event {event!r}")
    return data


def spans_from_chrome(data: dict) -> list[dict]:
    """Reconstruct span dicts from a :func:`chrome_trace` object."""
    known = {
        "span_id",
        "parent_id",
        "status",
        "start_wall_s",
        "end_wall_s",
        "start_sim_ms",
        "end_sim_ms",
    }
    names = {("process_name", e["pid"]): e["args"]["name"] for e in data["traceEvents"] if e["ph"] == "M" and e["name"] == "process_name"}
    threads = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in data["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    spans: list[dict] = []
    for event in data["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        group = names.get(("process_name", event["pid"]), "main")
        lane = threads.get((event["pid"], event["tid"]), group)
        process = group if lane == group else f"{group}/{lane}"
        span = {
            "span_id": args["span_id"],
            "parent_id": args.get("parent_id"),
            "name": event["name"],
            "category": "" if event.get("cat") == "span" else event.get("cat", ""),
            "process": process,
            "start_wall_s": args["start_wall_s"],
            "end_wall_s": args["end_wall_s"],
            "status": args.get("status", "ok"),
            "attrs": {k: v for k, v in args.items() if k not in known},
        }
        if args.get("start_sim_ms") is not None:
            span["start_sim_ms"] = args["start_sim_ms"]
        if args.get("end_sim_ms") is not None:
            span["end_sim_ms"] = args["end_sim_ms"]
        validate_span_dict(span)
        spans.append(span)
    spans.sort(key=lambda s: s["span_id"])
    return spans

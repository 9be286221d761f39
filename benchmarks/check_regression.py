"""Regression guards: exact trajectory counters and bench wall times.

**Exact counters.**  The scheduler's search trajectory (packs,
bisection steps, certificate skips, kernel choice, rebalance moves)
and its schedules are deterministic and host-independent, so CI checks
them for exact equality against ``benchmarks/expected_counters.json``::

    python benchmarks/check_regression.py \
        --expected benchmarks/expected_counters.json RUN_OUTPUT...

Each run output is either the standard output of
``perfbench/run.py --seed 1 --seconds 1`` (both ``--trace 0``, which
carries the per-input schedule digests, and ``--trace 1``, which
carries the per-layer counters, under ``REPRO_CPUS=2`` because
``fleet-sharded`` runs one pod per CPU), or the ``--output`` report of
the ``repro fuzz`` (``--runs 50 --seed 0``), ``repro fuzz
--crash-restore`` (``--runs 50 --seed 0``) or ``repro tournament``
(``--runs 10 --seed 0``) campaign.  Every expected value of each kind
of output given must be present and equal; floats (the HiGHS
``bound_ratio``) agree to 1e-6 relative.  Any difference, including a
perfbench workload missing from the run, fails (exit 1) and names the
field.  A legitimate trajectory change updates the expected file in
the same commit.

Wall times are not guarded across hosts for the workloads perfbench
measures: the same commit's ``fleet-cold`` ``sched_p50_ms`` spread
wider than a 25 % bound between runs on one shared 2-CPU host, so a
wall-time guard can neither catch a trajectory change nor stay quiet
without one.

**Bench wall times.**  Without ``--expected`` the two files are the
committed ``BENCH_scheduler.json`` and a freshly generated one; a
record field guarded with the repeatable ``--guard
record.field[:tolerance]`` option fails when it grew by more than its
tolerance (``--max-regression``, default 25 %)::

    python benchmarks/check_regression.py baseline.json current.json \
        --guard telemetry_disabled_mid_pass.total_s:0.05

A guard whose record is missing from the *baseline* is skipped with a
note (the migration path for freshly added benches); a record missing
from the *current* file fails, because the bench that produces it
stopped reporting.  Both files must declare the schema-2 layout
(``{"schema": 2, "records": {...}}``).

Records may carry context fields for interpreting timings across
machines — ``kernel``; sharded records add ``pods``,
``pod_solve_ms_max`` (the slowest pod), ``pod_solve_ms_sum``,
``shard_bound_ratio`` (makespan over the pod-aggregated LP floor,
always >= 1), ``solve_critical_path_s`` (the span tracer's critical
path, which must explain >= 95 % of ``solve_s``) and
``solve_overhead_s``.  The file-level ``cpu_count`` is
affinity/cgroup-aware (see ``repro.core.capacity.available_cpus``).
Guards are one-sided, so guard only fields where higher is worse:
``shard_bound_ratio`` is guarded on the 4000×20000 record so a
splitter regression cannot hide behind a wall-time win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

EXPECTED_SCHEMA = 2

#: Relative tolerance for float counters (HiGHS noise in the LP bound).
FLOAT_RTOL = 1e-6


def load_records(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: cannot read bench json: {exc}")
    if not isinstance(data, dict) or "records" not in data:
        raise SystemExit(f"{path}: not a bench trajectory file (no records)")
    schema = data.get("schema")
    if schema != EXPECTED_SCHEMA:
        raise SystemExit(
            f"{path}: bench schema {schema!r} unsupported "
            f"(expected {EXPECTED_SCHEMA})"
        )
    records = data["records"]
    if not isinstance(records, dict):
        raise SystemExit(f"{path}: records must be an object")
    return records


def parse_guard(text: str, default_tolerance: float) -> tuple[str, str, float]:
    """``record.field[:tolerance]`` -> (record, field, tolerance)."""
    spec, _, tolerance_text = text.partition(":")
    record, _, field = spec.partition(".")
    if not record or not field:
        raise SystemExit(
            f"bad --guard {text!r}: expected record.field[:tolerance]"
        )
    if tolerance_text:
        try:
            tolerance = float(tolerance_text)
        except ValueError:
            raise SystemExit(
                f"bad --guard {text!r}: tolerance must be a number"
            )
        if tolerance < 0:
            raise SystemExit(f"bad --guard {text!r}: tolerance must be >= 0")
    else:
        tolerance = default_tolerance
    return record, field, tolerance


def check_guard(
    baseline_records: dict,
    current_records: dict,
    record: str,
    field: str,
    tolerance: float,
) -> bool:
    """Apply one guard; prints the verdict, returns True when it holds."""
    label = f"{record}.{field}"
    if record not in baseline_records or field not in baseline_records.get(
        record, {}
    ):
        print(f"{label}: not in baseline, skipping (new bench?)")
        return True
    try:
        current = float(current_records[record][field])
    except (KeyError, TypeError, ValueError):
        print(
            f"{label}: present in baseline but missing from current run",
            file=sys.stderr,
        )
        return False
    baseline = float(baseline_records[record][field])
    limit = baseline * (1.0 + tolerance)
    verdict = "OK" if current <= limit else "REGRESSION"
    print(
        f"{label}: baseline {baseline:.3f}, current {current:.3f}, "
        f"limit {limit:.3f} (+{tolerance * 100.0:.0f}%) -> {verdict}"
    )
    if current > limit:
        slowdown = (current / baseline - 1.0) * 100.0 if baseline else 0.0
        print(
            f"{label} slowed by {slowdown:.0f}% "
            f"(allowed {tolerance * 100.0:.0f}%)",
            file=sys.stderr,
        )
        return False
    return True


def load_run(path: Path) -> tuple[str, dict]:
    """``(kind, fields)`` of a perfbench log or a campaign report."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read run output: {exc}")
    try:
        report = json.loads(text)
    except ValueError:
        # A perfbench log: a ``context:`` line, then the result line.
        lines = text.splitlines()
        try:
            context = json.loads(
                next(x for x in lines if x.startswith("context: "))
                .removeprefix("context: ")
            )
            metrics = json.loads(lines[-1])["metrics"]
        except (StopIteration, ValueError, KeyError, IndexError) as exc:
            raise SystemExit(f"{path}: not a perfbench log or report: {exc}")
        fields = dict(context)
        fields.update((name, m["value"]) for name, m in metrics.items())
        return "perfbench", fields
    kind = report.get("mode") or (
        "tournament" if "policies" in report else "fuzz"
    )
    return kind, report


def compare_exact(expected, actual, path: str = "") -> list[str]:
    """Every leaf of ``expected`` must be in ``actual`` and equal to it."""
    if isinstance(expected, dict):
        problems = []
        for key, want in expected.items():
            label = f"{path}.{key}" if path else key
            if not isinstance(actual, dict) or key not in actual:
                problems.append(f"{label}: missing from the run")
            else:
                problems += compare_exact(want, actual[key], label)
        return problems
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        same = math.isclose(actual, expected, rel_tol=FLOAT_RTOL)
    else:
        same = actual == expected
    return [] if same else [f"{path}: expected {expected!r}, got {actual!r}"]


def check_expected(expected_path: Path, run_paths: list[Path]) -> bool:
    """Compare run outputs with the expected values of their kinds."""
    expected = json.loads(expected_path.read_text())
    runs: dict = {}
    for path in run_paths:
        kind, fields = load_run(path)
        if kind == "perfbench":
            # The untraced and traced logs of a workload add up.
            workloads = runs.setdefault(kind, {})
            workloads.setdefault(fields["workload"], {}).update(fields)
        else:
            runs[kind] = fields
    problems = [
        f"{kind}: no expected values" for kind in runs if kind not in expected
    ]
    problems += compare_exact(
        {kind: expected[kind] for kind in runs if kind in expected}, runs
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    verdict = "MISMATCH" if problems else "OK"
    print(f"exact counters ({', '.join(sorted(runs))}): {verdict}")
    return not problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "files",
        nargs="+",
        type=Path,
        help="baseline and current BENCH json; with --expected, the run "
        "outputs to check",
    )
    parser.add_argument(
        "--expected",
        type=Path,
        help="expected-counters json: check the run outputs exactly",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="default allowed fractional slowdown (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--guard",
        action="append",
        metavar="RECORD.FIELD[:TOLERANCE]",
        help="guard an additional record field (repeatable); "
        "without an explicit tolerance, --max-regression applies",
    )
    args = parser.parse_args(argv)
    if args.expected is not None:
        return 0 if check_expected(args.expected, args.files) else 1
    if len(args.files) != 2:
        parser.error("expected two files: baseline.json current.json")

    baseline_records = load_records(args.files[0])
    current_records = load_records(args.files[1])

    ok = True
    for text in args.guard or ():
        record, field, tolerance = parse_guard(text, args.max_regression)
        ok &= check_guard(
            baseline_records, current_records, record, field, tolerance
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

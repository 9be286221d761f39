"""Benchmark-harness configuration.

Each ``test_bench_*`` module regenerates one paper figure/table.  The
figure-level benches run their experiment driver once per round (these
are end-to-end experiments, not micro-benchmarks) and print the same
rows/series the paper reports; run with ``-s`` to see them.

Scheduler benches additionally record their headline numbers through
the :func:`record_scheduler_bench` fixture; at session end the records
are written to ``BENCH_scheduler.json`` at the repository root so the
scheduler's perf trajectory is tracked from PR to PR (CI uploads the
file as an artifact).
"""

import json
import os
import platform
from pathlib import Path

import numpy
import pytest

_SCHEDULER_BENCH_RECORDS: dict = {}

_BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark timer.

    Experiment drivers are deterministic and heavy; a single round
    gives the regeneration cost without re-running minutes of work.
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, iterations=1, rounds=1
        )

    return run


@pytest.fixture
def record_scheduler_bench():
    """Register one named record for the BENCH_scheduler.json emitter."""

    def record(name: str, **fields):
        _SCHEDULER_BENCH_RECORDS[name] = fields

    return record


def pytest_sessionfinish(session, exitstatus):
    """Emit BENCH_scheduler.json when any scheduler bench recorded data.

    Existing records from benches not run in this session are kept, so
    partial runs (e.g. CI smoke running only the micro-benches) never
    erase the fleet-scale numbers.
    """
    if not _SCHEDULER_BENCH_RECORDS:
        return
    # Schema 2 adds the numpy version, the CPU count, and per-record
    # kernel fields — enough context to interpret dual-kernel numbers.
    payload = {"schema": 2, "records": {}}
    if _BENCH_JSON_PATH.exists():
        try:
            previous = json.loads(_BENCH_JSON_PATH.read_text())
            payload["records"].update(previous.get("records", {}))
        except (OSError, ValueError):
            pass
    payload["records"].update(_SCHEDULER_BENCH_RECORDS)
    payload["python"] = platform.python_version()
    payload["machine"] = platform.machine()
    payload["numpy"] = numpy.__version__
    # The CPUs this process may actually run on (cgroup/affinity-aware),
    # not the machine's nominal core count — pod-pool sizing uses
    # the same detector, so the recorded numbers are interpretable on
    # throttled CI runners.
    from repro.core.capacity import available_cpus

    payload["cpu_count"] = available_cpus()
    payload["cpu_count_nominal"] = os.cpu_count()
    _BENCH_JSON_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

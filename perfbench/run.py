"""End-to-end and per-layer benchmark of the CWC scheduler and server.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 10 --trace 0

``--workload`` is one of the workloads declared in ``BENCHMARK.json``
(``fleet-cold``, ``fleet-sharded``, ``night-chaos``; see
``perfbench/workloads.py``).  ``--seed`` selects the generated inputs:
the same seed gives the same fleets, jobs, arrivals and chaos plans.
The run measures for at least ``--seconds`` seconds and at least three
rounds over its fixed inputs, and times each input by its best run.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it alternates untraced and traced runs of the
same inputs, records the benchmark's own spans around each public call,
and reports the per-layer metrics.  It also writes the spans as a
Perfetto/Chrome trace and a self-time table to ``.perfbench-out/``.
Every traced run reports every per-layer metric.  A layer that does not
run in the workload, or that the workload's traced run does not time
separately, reads 0.  ``perfbench/layers.py`` says which end-to-end
metric and workload each per-layer metric should move.

The run checks every output outside the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it carry the run context:
CPUs, versions, resolved kernels, schedule digests and tail
percentiles.  The exit code is 1 when any output check failed, and 2
when the program could not be imported or set up.

``setup_s`` is the median of three set-ups.  One is this process's own
set-up: imports, input generation and a warm-up call that exercises
every first-use path.  The other two come from fresh interpreters
started with ``--setup-only``, so a first-use cost such as a kernel
compile shows in every sample.

The benchmark caps BLAS/OpenMP threads at the CPU count.  The load is
then this process plus at most the pod pool's workers.  On every way
out, the run stops each process it or the program started (pool
workers, the multiprocessing resource tracker, set-up probes) and waits
for it; see ``perfbench/reaper.py``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Set-ups in fresh interpreters, on top of this process's own.
SETUP_PROBES = 2
SETUP_PROBE_TIMEOUT_S = 120

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cap_threads() -> int:
    """Cap native thread pools at the CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0)) or 1
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= cpus):
            os.environ[var] = str(cpus)
    return cpus


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up once, print the set-up seconds and exit",
    )
    return parser.parse_args(argv)


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter running ``--setup-only``."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--setup-only",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_PROBE_TIMEOUT_S,
        check=True,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_context(workload, cpus: int) -> dict:
    import numpy

    from workloads import available_cpus

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "available_cpus": available_cpus(),
        "thread_cap": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def write_trace(tracer, name: str, seed: int) -> list[str]:
    """Write the spans and the self-time table; return the table's lines."""
    from repro.obs.profile import render_profile_lines, self_time_table
    from repro.obs.trace_export import write_chrome_trace

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}"
    spans = tracer.to_dicts()
    write_chrome_trace(stem.with_suffix(".trace.json"), spans, run_id=stem.name)
    lines = render_profile_lines(self_time_table(spans))
    stem.with_suffix(".profile.txt").write_text("\n".join(lines) + "\n")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    cpus = cap_threads()
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    try:
        declaration = load_declaration()
        from workloads import WORKLOADS
    except (OSError, ImportError, ValueError) as exc:
        print(f"cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = {w["name"] for w in declaration["workloads"]}
    if args.workload not in WORKLOADS or args.workload not in declared:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
    except Exception:
        traceback.print_exc()
        return 2
    own_setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    if args.trace:
        from repro.obs.tracing import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
        result = workload.trace(args.seconds, tracer)
        wanted = declaration["per_layer"]
    else:
        result = workload.measure(args.seconds)
        setups = [own_setup_s]
        try:
            for _ in range(SETUP_PROBES):
                setups.append(setup_probe(args.workload, args.seed))
        except (subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"set-up probe failed: {exc}", file=sys.stderr)
            return 2
        result.metrics["setup_s"] = statistics.median(setups)
        result.context["setup_samples_s"] = setups
        wanted = declaration["end_to_end"]

    context = run_context(workload, cpus)
    context.update(result.context)
    context["failed_frac"] = result.failed / max(result.attempted, 1)
    print("context: " + json.dumps(context, sort_keys=True))
    if args.trace:
        for line in write_trace(tracer, args.workload, args.seed):
            print("profile: " + line)
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if args.trace:
        # A layer this workload does not exercise did no work in it.
        for name in missing:
            result.metrics[name] = 0
        missing = []
    if missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
    correct = result.failed == 0 and not missing and result.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted
                    if m["name"] in result.metrics
                },
            }
        )
    )
    return 0 if correct else 1


def run_and_clean_up() -> int:
    """Run :func:`main`, then stop and reap every process it started."""
    import signal

    import reaper

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    reaper.adopt_orphans()
    try:
        return main()
    finally:
        sys.stdout.flush()
        killed = reaper.stop_children()
        if killed:
            print(f"killed {killed} leftover processes", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(run_and_clean_up())

"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload night-chaos --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
declared ``run_seconds``.  For each end-to-end metric it prints the
median, the inter-quartile range over the median (``statistics.quantiles``
with ``n=4``), the metric's bound, and whether the spread stays under a
third of that bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        started = time.perf_counter()
        result = run_once(
            args.workload, seed, declaration["run_seconds"], args.trace
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        elapsed = time.perf_counter() - started
        print(f"seed {seed} ({elapsed:.1f} s): " + json.dumps(result), flush=True)
    bounds = {m["name"]: m.get("bound") for m in declaration["end_to_end"]}
    steady = True
    for name, series in values.items():
        line = f"{name:<32} median {stats.median(series):>14.6g}"
        if len(series) >= 2 and stats.median(series):
            spread = stats.relative_spread(series)
            line += f"  spread {spread:8.4f}"
            bound = bounds.get(name)
            if bound is not None:
                ok = spread < bound / 3
                steady &= ok or name == "setup_s"
                line += f"  bound {bound:5.2f}  {'ok' if ok else 'WIDE'}"
        print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""A run leaves no process behind: not a pool worker, not the resource tracker."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, subprocess, sys
from multiprocessing import resource_tracker, shared_memory
import reaper

reaper.adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
tracker = resource_tracker._resource_tracker._pid
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
before = sorted(reaper.children())
killed = reaper.stop_children(grace_s=2.0)
print(json.dumps({"tracker": tracker, "sleeper": sleeper.pid, "before": before,
                  "after": reaper.children(), "killed": killed}))
"""


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_stop_children_ends_the_tracker_and_every_child():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=BENCH,
        env={**os.environ, "PYTHONPATH": str(BENCH)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert {seen["tracker"], seen["sleeper"]} <= set(seen["before"])
    assert seen["after"] == []
    assert seen["killed"] == 0  # the tracker and the sleeper end by themselves
    assert not alive(seen["tracker"]) and not alive(seen["sleeper"])


def test_children_lists_only_this_process_children():
    import reaper

    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert child.pid in reaper.children()
        assert os.getpid() not in reaper.children()
    finally:
        child.kill()
        child.wait()
    assert child.pid not in reaper.children()

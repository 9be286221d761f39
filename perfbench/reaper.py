"""Stop and reap every process a benchmark run started.

The program under test forks process pools, and its shared-memory plane
starts Python's multiprocessing resource tracker: a helper process that
Python leaves running after the interpreter exits, until it notices
that its pipe closed.  A run must not leave it, or anything else,
behind.

:func:`adopt_orphans` makes this process the reaper of its descendants'
orphans (Linux ``PR_SET_CHILD_SUBREAPER``), so a grandchild whose parent
died comes back to this process instead of to init.
:func:`stop_children` then ends every child still running and waits
for each: the resource tracker by closing its pipe, which makes it exit
cleanly, anything else by SIGTERM, and whatever outlives the grace
period by SIGKILL.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

PR_SET_CHILD_SUBREAPER = 36

#: Seconds a child gets to exit by itself before it is killed.
GRACE_S = 5.0
_POLL_S = 0.01


def adopt_orphans() -> bool:
    """Become the reaper of orphaned descendants; False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # The command name may hold spaces and ')': the state and the
        # parent pid are the first two fields after its last ')'.
        fields = stat[stat.rfind(b")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            found.append(int(entry))
    return found


def _close_resource_tracker() -> None:
    """Close this process's pipe to the resource tracker, if it started one."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return
    try:
        os.close(fd)
    except OSError:
        pass
    tracker._fd = None
    tracker._pid = None


def _reap(pid: int) -> bool:
    """Collect ``pid`` if it has ended; True once it is gone."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True  # not ours to wait for, or already collected
    return done == pid


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def stop_children(grace_s: float = GRACE_S) -> int:
    """End every child of this process and wait for each.

    Returns how many children had to be killed after ``grace_s``.
    """
    _close_resource_tracker()
    asked: set[int] = set()
    killed: set[int] = set()
    deadline = time.monotonic() + grace_s
    while True:
        alive = [pid for pid in children() if not _reap(pid)]
        if not alive:
            return len(killed)
        late = time.monotonic() > deadline
        for pid in alive:
            if late:
                _signal(pid, signal.SIGKILL)
                killed.add(pid)
            elif pid not in asked:
                # The resource tracker ignores SIGTERM and exits on its
                # own once its pipe is closed; pool workers honour it.
                _signal(pid, signal.SIGTERM)
                asked.add(pid)
        if late:
            deadline = time.monotonic() + grace_s
        time.sleep(_POLL_S)

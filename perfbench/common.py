"""Pure helpers shared by every workload: statistics, schedules, /proc readers.

Nothing here imports the program under test, so the helpers (and their
tests) run without ``src`` on the path.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import math
import os
import platform
import random
import signal
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported percentile must have at least this many samples beyond it.
TAIL_SAMPLES = 10


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values: Iterable[float], want: int = 99) -> Tuple[int, float, int]:
    """``(pct, value, n)``: the highest percentile <= ``want`` that is honest.

    A percentile is honest when at least :data:`TAIL_SAMPLES` samples lie
    beyond it (nearest-rank, so ``n - ceil(pct/100 * n)`` of them).  With
    too few samples for even the median, the median is returned anyway and
    the caller prints ``pct`` and ``n`` next to it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    for pct in range(want, 49, -1):
        if n - math.ceil(pct / 100.0 * n) >= TAIL_SAMPLES:
            return pct, nearest_rank(ordered, pct), n
    return 50, nearest_rank(ordered, 50), n


def best_round(values: Sequence[float], higher_is_better: bool = False) -> float:
    """The least-disturbed of several rounds' values of one metric.

    Interference from other work on the machine only ever slows a round
    down, so the best round is the closest to the program's own cost.
    """
    if not values:
        raise ValueError("no rounds")
    return max(values) if higher_is_better else min(values)


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def p50_or_zero(values: Sequence[float]) -> float:
    """Median, or 0.0 for a layer that saw no calls (reported with n=0)."""
    return median(values) if values else 0.0


def tail_or_zero(values: Sequence[float], want: int = 99) -> float:
    return tail_percentile(values, want)[1] if values else 0.0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


class ZipfSampler:
    """Seeded Zipf(``s``) draws over ranks ``0 .. n-1`` (rank 0 most popular)."""

    def __init__(self, n: int, s: float, rng: random.Random):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        self._rng = rng
        total = 0.0
        self._cdf: List[float] = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            self._cdf.append(total)
        self._total = total

    def draw(self) -> int:
        u = self._rng.random() * self._total
        return min(bisect.bisect_right(self._cdf, u), len(self._cdf) - 1)


def poisson_schedule(rate: float, count: int, rng: random.Random) -> List[float]:
    """Offsets (s) of ``count`` Poisson arrivals at ``rate`` per second."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# open-loop honesty
# ---------------------------------------------------------------------------


def backlog_grew(samples: Sequence[int], slack: float = 1.0) -> bool:
    """Whether the client-side backlog trended up over a phase.

    ``samples`` is the queue length seen at each arrival.  The phase is
    over capacity when the mean of its last quarter exceeds the mean of
    its first quarter by more than ``slack`` requests.
    """
    if len(samples) < 8:
        return False
    q = len(samples) // 4
    head = sum(samples[:q]) / q
    tail = sum(samples[-q:]) / q
    return tail > head + slack


def over_capacity(late_ms: Sequence[float], backlog: Sequence[int], late_limit_ms: float) -> bool:
    """A rate is over capacity if the generator ran late or the backlog grew."""
    if late_ms and tail_percentile(late_ms)[1] > late_limit_ms:
        return True
    return backlog_grew(backlog)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def build_trees(events: Sequence[dict]) -> List[dict]:
    """Rebuild span trees from one thread's pre-order ``depth``-tagged events.

    The tracer replays a merged tree parent-first with each span's depth,
    so a stack over depths restores the nesting.  Returns the roots; each
    node is the event dict plus a ``children`` list.
    """
    roots: List[dict] = []
    stack: List[dict] = []
    for ev in events:
        node = dict(ev, children=[])
        depth = int(ev.get("depth", 0))
        del stack[depth:]
        if stack:
            stack[-1]["children"].append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


def self_ms(node: dict) -> float:
    """A span's duration minus the time its direct children cover."""
    return max(0.0, float(node["ms"]) - sum(float(c["ms"]) for c in node["children"]))


def unattributed_ms(end_to_end_ms: float, layer_ms: Iterable[float]) -> float:
    """End-to-end time that no recorded layer accounts for (may be < 0)."""
    return end_to_end_ms - sum(layer_ms)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def src_digest(src_dir: str) -> str:
    """sha256 over the program's source files (stands in for a sha off git)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(repo_dir: str) -> Optional[str]:
    """HEAD of ``repo_dir`` if it is itself a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=repo_dir,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(repo_dir):
        return None  # an enclosing repository, not this checkout
    return lines[1]


def fingerprint(repo_dir: str, engines: Sequence[str], numpy_version: str) -> Dict[str, object]:
    """What makes one run comparable with another."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(repo_dir),
        "src_digest": src_digest(os.path.join(repo_dir, "src")),
        "bitset_engines": list(engines),
        "loadavg": list(os.getloadavg()),
        "platform": sys.platform,
    }


def usable_cpus() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# /proc readers
# ---------------------------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process (0 if gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (scans ``/proc``)."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(name))
    return sorted(out)


# ---------------------------------------------------------------------------
# process supervision
# ---------------------------------------------------------------------------

#: ``prctl`` option that makes orphaned descendants reparent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the parent of its descendants once theirs ends (Linux).

    Without it a process whose parent exited (``multiprocessing``'s
    resource tracker, a shard whose gateway died) moves to init and can
    no longer be waited for.  Returns whether the kernel accepted it.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        return False


def _reap_until(deadline: float) -> bool:
    """Reap ended children until none is left (True) or ``deadline`` passes."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)


def wait_for_descendants(grace_s: float, kill_wait_s: float = 5.0) -> List[int]:
    """Wait until every child of this process has ended; returns the pids stopped.

    Children get ``grace_s`` seconds to end on their own.  Then each still
    running gets SIGTERM, and after ``kill_wait_s`` more SIGKILL, round
    after round, since a killed child's own children become ours (see
    :func:`adopt_orphans`).  Returns only when no child is left.
    """
    stopped: List[int] = []
    if _reap_until(time.monotonic() + grace_s):
        return stopped
    sig = signal.SIGTERM
    while True:
        for pid in child_pids(os.getpid()):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                continue
            if pid not in stopped:
                stopped.append(pid)
        if _reap_until(time.monotonic() + kill_wait_s):
            return stopped
        sig = signal.SIGKILL

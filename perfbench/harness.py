"""Measurement helpers shared by the workloads: percentiles, the
``storage_stats()`` delta, the per-run recorder and the environment stamp."""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping, Sequence

#: Percentiles the tail rule may pick, highest first. A fixed ladder keeps
#: the chosen percentile the same across runs whose sample counts differ
#: slightly, so two runs report the same statistic.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie strictly beyond the reported tail value.
TAIL_MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of the sorted samples ``ordered``."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    samples: Sequence[float], cap: float = 100.0
) -> tuple[float, float]:
    """The highest ladder percentile, at most ``cap``, with at least ten
    samples beyond it.

    Returns ``(value, percentile)``. With too few samples for any ladder
    step the maximum is reported as percentile 100.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        if pct > cap:
            continue
        value = nearest_rank(ordered, pct)
        beyond = len(ordered) - bisect.bisect_right(ordered, value)
        if beyond >= TAIL_MIN_BEYOND:
            return value, pct
    return ordered[-1], 100.0


def flatten(tree: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested dict as ``{"a.b.c": value}`` (bools and
    non-numeric leaves are skipped; lists are not descended)."""
    out: dict[str, float] = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten(value, name + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = value
    return out


def stats_delta(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, float]:
    """``after - before`` for every numeric leaf of two ``storage_stats()``
    snapshots. A leaf missing from ``before`` (a table created in between)
    counts from zero; one missing from ``after`` (a dropped table) is left
    out."""
    old = flatten(before)
    return {
        name: value - old.get(name, 0)
        for name, value in flatten(after).items()
    }


class CpuWaitFreeClock:
    """Wall-clock seconds minus the time this thread spent runnable but
    waiting for a CPU (the second field of ``/proc/thread-self/schedstat``).

    On a host shared with other tenants, time spent queued behind their
    processes is the dominant run-to-run noise; it is not work the
    measured program did, so measured intervals leave it out. Time the
    thread blocks on I/O (fsync, reads) still counts. Where the kernel
    offers no schedstat the clock is plain ``perf_counter``.
    Call it from the thread that created it.
    """

    def __init__(self) -> None:
        try:
            self._fd: int | None = os.open(
                "/proc/thread-self/schedstat", os.O_RDONLY
            )
            self._wait_s()
        except (OSError, ValueError, IndexError):
            self.close()

    def _wait_s(self) -> float:
        return int(os.pread(self._fd, 128, 0).split()[1]) * 1e-9

    def __call__(self) -> float:
        now = perf_counter()
        if self._fd is None:
            return now
        return now - self._wait_s()

    @property
    def excludes_cpu_wait(self) -> bool:
        return self._fd is not None

    def close(self) -> None:
        fd, self._fd = getattr(self, "_fd", None), None
        if fd is not None:
            os.close(fd)


def _kernel(n: int = 24_000) -> int:
    """Fixed interpreter-bound work: arithmetic, dict stores, a sort."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return acc + sorted(table.values())[0]


class Calibrator:
    """Tracks how fast the host runs interpreter-bound code right now.

    The host's speed drifts by up to half again over spans of tens of
    seconds (other tenants, frequency changes), which moves every timing of
    a run together. Between measured operations, at most every
    ``every_s`` seconds, the calibrator times a fixed kernel. A measured
    interval is then scaled by ``REFERENCE_S / kernel time`` over the ticks
    that bracket it: timings are reported in seconds of a host on which
    the kernel takes ``REFERENCE_S``.
    """

    REFERENCE_S = 0.004

    def __init__(self, clock, every_s: float = 0.25) -> None:
        self.clock = clock
        self.every_s = every_s
        self.ticks: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Time the kernel if one is due; returns the tick count, which
        indexes the next measured interval."""
        if force or perf_counter() - self._last >= self.every_s:
            best = float("inf")
            for _ in range(2):  # the faster of two damps one-off jitter
                start = self.clock()
                _kernel()
                best = min(best, self.clock() - start)
            self.ticks.append(best)
            self._last = perf_counter()
        return len(self.ticks)

    def scale(self, index: int) -> float:
        """Factor for an interval measured after ``index`` ticks."""
        around = self.ticks[max(0, index - 1) : index + 1]
        if not around:
            return 1.0
        return self.REFERENCE_S / (sum(around) / len(around))


class Recorder:
    """Samples and outcome counts for the measured operations of one run.

    Samples keep the calibrator tick they were taken after; ``reads_s`` and
    ``commits_s`` give them scaled to the reference host.
    """

    def __init__(self, calibrator: Calibrator | None = None) -> None:
        self.calibrator = calibrator
        self.reads: list[tuple[float, int]] = []  # one per read request
        self.commits: list[tuple[float, int]] = []  # one per write commit
        self.commit_groups: list[int] = []
        self.queries = 0  # read queries completed
        self.rows_ingested = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _index(self) -> int:
        return len(self.calibrator.ticks) if self.calibrator else 0

    def read(self, seconds: float, queries: int = 1) -> None:
        self.reads.append((seconds, self._index()))
        self.queries += queries

    def commit(self, seconds: float, rows: int, group: int = -1) -> None:
        """One write transaction; ``group`` names the set-up it belongs
        to, or -1 for a commit of the measured blocks."""
        self.commits.append((seconds, self._index()))
        self.commit_groups.append(group)
        self.rows_ingested += rows

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def _scaled(self, samples: list[tuple[float, int]]) -> list[float]:
        if self.calibrator is None:
            return [s for s, _ in samples]
        scale = self.calibrator.scale
        return [s * scale(i) for s, i in samples]

    @property
    def reads_s(self) -> list[float]:
        return self._scaled(self.reads)

    @property
    def commits_s(self) -> list[float]:
        return self._scaled(self.commits)

    def op_time_s(self) -> float:
        """Unscaled time inside measured operations (reads and commits)."""
        return sum(s for s, _ in self.reads) + sum(s for s, _ in self.commits)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"  # an exported checkout; src_digest identifies it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "none"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, identifying the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_stamp(root: Path, workload_stamp: Mapping[str, Any]) -> dict:
    """Environment and configuration a result was measured under."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "none"
    return {
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": sys.platform,
        **workload_stamp,
    }

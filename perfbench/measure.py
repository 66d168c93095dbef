"""Measurement helpers: percentiles, process-tree CPU and memory, environment.

Everything here observes the running system from the outside -- ``/proc``
and ``getrusage`` -- so the benchmark needs no hook inside the program to
account for its worker processes.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from pathlib import Path

#: Percentiles the tables may report, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] <= ordered[low]:  # also keeps inf - inf out
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> "float | None":
    """The highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    supported = [q for q in PERCENTILES if count * (1.0 - q / 100.0) >= 10.0]
    return supported[-1] if supported else None


def summarize(values) -> dict:
    """Median, the supported tail percentile and the sample count."""
    values = list(values)
    tail = tail_percentile(len(values))
    return {
        "n": len(values),
        "median": statistics.median(values) if values else math.nan,
        "tail_q": tail,
        "tail": percentile(values, tail) if tail is not None else math.nan,
    }


def _proc_stat_fields(pid: int) -> "list[str] | None":
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesized and may contain spaces.
    return text[text.rindex(")") + 2 :].split()


def child_pids() -> list[int]:
    """Live direct children of this process (the pool workers)."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _proc_stat_fields(int(entry.name))
        if fields is not None and int(fields[1]) == me:
            pids.append(int(entry.name))
    return sorted(pids)


def process_tree_cpu() -> float:
    """CPU seconds of this process, its reaped children and its live children.

    A live child's time moves into ``RUSAGE_CHILDREN`` when it is reaped, so
    differences of this value over an interval count every child once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    for pid in child_pids():
        fields = _proc_stat_fields(pid)
        if fields is not None:
            # utime and stime are fields 14 and 15 of /proc/<pid>/stat.
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def _status_value(pid: int, key: str) -> "int | None":
    try:
        lines = Path(f"/proc/{pid}/status").read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return None


def worker_peak_rss_kb() -> int:
    """Largest peak RSS of any live or reaped child, in KiB."""
    peaks = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    for pid in child_pids():
        peak = _status_value(pid, "VmHWM")
        if peak is not None:
            peaks.append(peak)
    return max(peaks)


def peak_rss_mb(workers: int, worker_peak_kb: int) -> float:
    """Parent peak RSS plus ``workers`` times the largest worker peak, in MB.

    Forked workers share unmodified pages with the parent, so this is an
    upper bound on the resident memory the run needed at once.
    """
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (parent + workers * worker_peak_kb) / 1024.0


def thread_counts() -> dict:
    """OS threads in this process and in each live worker process.

    A forked worker starts its BLAS threads at its first BLAS call, so read
    this after the workload has run.
    """
    return {
        "parent": _status_value(os.getpid(), "Threads"),
        "workers": [_status_value(pid, "Threads") for pid in child_pids()],
    }


def blas_threads() -> "int | None":
    """Threads OpenBLAS is configured to use in this process.

    Forked workers inherit the setting, so this is also the BLAS threads per
    worker. Read through the loaded library; ``None`` if there is none.
    """
    import ctypes

    libraries = sorted(
        {
            line.split()[-1]
            for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line.lower() and ".so" in line
        }
    )
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def git_revision(root: Path) -> "str | None":
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    """Machine and toolchain facts recorded beside every result."""
    import numpy

    return {
        "git_rev": git_revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_per_process": blas_threads(),
        "blas_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }

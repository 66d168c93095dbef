"""Process-pool conventions: worker count, start method, execution profile.

The synthetic evaluation models up to 100 000 independent functions per
sweep cell -- embarrassingly parallel work. This module holds the shared
multiprocessing conventions the rest of the library relies on:

* *Determinism*: tasks carry their own pre-spawned RNGs (see
  :func:`repro.util.seeding.spawn_generators`), and results are returned in
  task order, so serial and parallel runs are bit-identical.
* *Fork start method where available*: workers inherit read-only state
  (e.g. the pretrained network) copy-on-write instead of pickling it per
  task. On platforms without ``fork`` (Windows, and macOS defaults) the
  platform's default start method is used instead; see
  :func:`pool_context` for the implications.
* *Opt-in*: the default is serial execution; set ``processes`` explicitly or
  export ``REPRO_PROCS`` (0/1 = serial, N = pool of N, ``auto`` = CPU count).

The fault-tolerant sweep engine with retries, timeouts, and progress
reporting lives in :mod:`repro.parallel.engine`; it is what the sweep
drivers use.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.parallel import blas


def resolve_processes(processes: "int | None" = None) -> int:
    """Resolve the worker count from the argument or ``REPRO_PROCS``."""
    if processes is None:
        env = os.environ.get("REPRO_PROCS", "").strip().lower()
        if not env:
            return 1
        if env == "auto":
            return max(os.cpu_count() or 1, 1)
        try:
            processes = int(env)
        except ValueError:
            raise ValueError(
                f"invalid REPRO_PROCS value {env!r}: expected '0' or '1' "
                "(serial), a positive worker count 'N', or 'auto' (CPU count)"
            ) from None
    if processes < 0:
        raise ValueError("processes must be non-negative")
    return max(processes, 1)


def execution_profile(processes: "int | None" = None) -> dict:
    """The resolved worker count next to the machine's cores and BLAS threads.

    Benchmark records embed this so perf numbers can be read in context: a
    run is oversubscribed when its workers' default BLAS pools together
    exceed the usable cores (counted as :func:`repro.parallel.blas.worker_share`
    counts them), and its summed worker CPU-seconds then legitimately exceed
    the wall-clock stage totals. ``blas`` names the controlled backend (or
    ``"none"``), ``blas_threads`` is the library default and
    ``inference_blas_threads`` what each worker's inference runs on.
    """
    resolved = resolve_processes(processes)
    threads = blas.library_threads()
    inference = threads
    if threads is not None and resolved > 1:
        inference = min(blas.worker_share(resolved), threads)
    return {
        "processes": resolved,
        "cpu_count": os.cpu_count() or 1,
        "oversubscribed": resolved * (threads or 1) > blas.usable_cores(),
        "blas": blas.backend(),
        "blas_threads": threads,
        "inference_blas_threads": inference,
    }


def pool_context(start_method: "str | None" = None) -> multiprocessing.context.BaseContext:
    """The multiprocessing context used for sweep pools.

    Prefers ``fork`` so workers inherit read-only state (the pretrained
    network, the sweep config) copy-on-write. Where ``fork`` is unavailable
    (Windows) -- or when it is unsafe because threads already exist and the
    caller opts out -- the platform default (``spawn``) is used. Determinism
    is unaffected by the start method: tasks carry pre-spawned RNGs and
    results are reassembled in task order. The practical differences are
    that ``spawn`` re-imports worker modules (slower startup, no
    copy-on-write sharing) and requires every task function, initializer,
    and argument to be picklable.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()

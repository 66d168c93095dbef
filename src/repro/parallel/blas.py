"""BLAS thread control for the engine workers' inference.

NumPy's OpenBLAS sizes its thread pool to the machine, so in a pool of N
engine workers on C cores every worker's matrix products fan out over all C
cores. After each threaded call OpenBLAS's helper threads busy-wait before
they sleep: the short forward pass a sweep worker runs on every batch leaves
a spinning helper on the core a sibling worker needs. Engine workers
therefore run inference (:func:`inference_threads`) on their share of the
cores (:func:`worker_share`). Training, synthesis and every process the
engine did not narrow keep the library's default pool; there the scope is a
no-op that never calls into the library.

The library is NumPy's already-loaded OpenBLAS, resolved once through ctypes.
Where none is found (another BLAS) the control is a no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

#: ``(backend, setter, getter)`` symbol names, tried in order.
_SYMBOLS = (
    ("scipy-openblas64", "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas", "openblas_set_num_threads", "openblas_get_num_threads"),
)

_library: "tuple | None" = None  # (name, set, get) once resolved; () when absent
_inference_share: "int | None" = None  # set in engine workers only


def _resolve() -> tuple:
    """The loaded library's ``(name, set, get)``, or ``()`` without one."""
    global _library
    if _library is None:
        _library = ()
        try:
            from numpy._core import _multiarray_umath
        except ImportError:  # NumPy < 2
            from numpy.core import _multiarray_umath
        try:
            # dlsym on NumPy's extension module also searches the BLAS it links.
            handle = ctypes.CDLL(_multiarray_umath.__file__)
        except OSError:
            return _library
        for name, set_name, get_name in _SYMBOLS:
            if hasattr(handle, set_name) and hasattr(handle, get_name):
                setter, getter = getattr(handle, set_name), getattr(handle, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                _library = (name, setter, getter)
                break
    return _library


def backend() -> str:
    """The controlled BLAS backend, or ``"none"``."""
    library = _resolve()
    return library[0] if library else "none"


def library_threads() -> "int | None":
    """The library's current thread count; ``None`` without a backend."""
    library = _resolve()
    return library[2]() if library else None


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_share(processes: int) -> int:
    """Each of ``processes`` workers' share of the usable cores (at least 1)."""
    return max(1, usable_cores() // max(1, processes))


def narrow_inference(processes: int) -> None:
    """Run this process's inference on its share; called at worker start."""
    global _inference_share
    _inference_share = worker_share(processes)


@contextlib.contextmanager
def inference_threads():
    """Run the block on the worker's share of the BLAS threads, then restore.

    Only narrows, never widens; a no-op outside narrowed engine workers.
    """
    library = _resolve() if _inference_share is not None else ()
    previous = library[2]() if library else 0
    if _inference_share is None or _inference_share >= previous:
        yield
        return
    library[1](_inference_share)
    try:
        yield
    finally:
        library[1](previous)

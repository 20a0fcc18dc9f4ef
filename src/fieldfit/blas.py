"""Put OpenBLAS on one thread for the rest of the process.

Subdomain fits, Shepard evaluation and Darcy solves call
:func:`use_one_blas_thread` first: results can depend on the BLAS thread
count, and on two cores OpenBLAS's default threading made small products
both slower and erratic.  The count is never restored.  The thread-count
controls are looked up once per process, on the first call.
"""

from __future__ import annotations

import ctypes
import functools

# OpenBLAS thread-count controls under the names its builds export
# (plain, and as bundled with numpy and scipy wheels)
_OPENBLAS_THREAD_CONTROLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def _find_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS this process loaded.

    The libraries are found in the process's memory map, so this finds
    nothing (and the caller changes nothing) where there is no
    ``/proc/self/maps`` or no OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.split()[-1].rsplit("/", 1)[-1]
            })
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CONTROLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    return controls


@functools.cache
def _thread_controls():
    """The controls of :func:`_find_thread_controls`, found on first use.

    Importing fieldfit loads numpy's and scipy's OpenBLAS (``elastic_net``
    imports ``scipy.linalg``), so both are mapped before the first lookup.
    Reading the memory map and opening the libraries took 1.7 ms per lookup.
    """
    return tuple(_find_thread_controls())


def use_one_blas_thread() -> None:
    """Set every loaded OpenBLAS that is not on one thread to one thread.

    A library already on one thread gets no set call.  After a fork
    OpenBLAS's thread pool is stopped, and any set call, even to the count
    it already has, starts it again, and the new helper threads spin against
    the work that follows (in a forked child on 2 cores with OpenBLAS
    0.3.31, one call per library took the process from 1 to 3 threads and
    cost about 0.12 s of helper CPU).  So a worker forked after this call,
    and every later call, makes no set call.
    """
    for get, set_ in _thread_controls():
        if get() != 1:
            set_(1)

"""Run a block of code with OpenBLAS on one thread.

Subdomain fits and Shepard evaluation use :func:`one_blas_thread`: results
can depend on the BLAS thread count, and on two cores OpenBLAS's default
threading made small products both slower and erratic.  The thread-count
controls are looked up once per process, the first time a block runs.
"""

from __future__ import annotations

import contextlib
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


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its setting."""
    controls = _thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)

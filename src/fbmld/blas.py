"""Keep BLAS work on the calling thread.

numpy bundles an OpenBLAS with its own thread pool.  After a
multi-threaded call its workers keep spinning on another core for a while,
and the call's speed depends on whether that core is free.  fbmld's large
products and its L-BFGS searches gain little from a second thread, so they
run inside :func:`one_thread`, and their cost depends on their size alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os

_PACKAGES = ("numpy",)
# numpy's wheels bundle scipy-openblas, which prefixes every symbol; its
# 64-bit-index build also takes the 64_ suffix
_SYMBOLS = [(f"{p}openblas_get_num_threads{s}", f"{p}openblas_set_num_threads{s}")
            for p in ("scipy_", "") for s in ("64_", "")]


@functools.cache
def _openblas_files() -> tuple[str, ...]:
    """Paths of the OpenBLAS libraries bundled with numpy."""
    paths = []
    for package in _PACKAGES:
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        libdir = os.path.join(spec.submodule_search_locations[0], os.pardir,
                              f"{package}.libs")
        paths += sorted(glob.glob(os.path.join(libdir, "*openblas*")))
    return tuple(paths)


def _bundled_openblas() -> list[tuple]:
    """(get, set) thread-count pairs of the OpenBLAS copies already loaded.

    Only libraries the process has loaded are touched (loading one would
    start its thread pool), so each call probes them again: a library loaded
    since the last call is pinned too.  Empty when numpy links another
    BLAS.
    """
    pairs = []
    for path in _openblas_files():
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                pairs.append((get, put))
                break
    return pairs


# one_thread() blocks open now: module state, as the thread counts it guards
# are process-wide; only the outermost block pins and restores them
_depth = 0


@contextlib.contextmanager
def one_thread():
    """Run the enclosed BLAS calls of numpy on one thread.

    The previous thread counts are restored on exit.  The setting is
    process-wide while it lasts.  Entries nest: only the outermost one
    probes the libraries, pins them and restores them, so a nested entry
    costs nothing (and a library first loaded inside the outermost block
    is not pinned until the next outermost entry).
    """
    global _depth
    pairs = [] if _depth else _bundled_openblas()
    before = [get() for get, _ in pairs]
    for _, put in pairs:
        put(1)
    _depth += 1
    try:
        yield
    finally:
        _depth -= 1
        for (_, put), count in zip(pairs, before):
            put(count)

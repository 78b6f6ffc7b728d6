"""The one helper thread that shares per-BS work with the main thread.

In a user-centric network each BS's precoder touches only its own channel, so
three kinds of work split by BS. The objective's channel products
(the pair products' H_l @ conj(P_l)^T, the gradient's H_l^T @ (beta A)[:, U_l])
are independent per-BS GEMMs; a WMMSE sweep's per-BS eigendecompositions
depend only on its fixed receivers and weights; and the RATTLE step's row work
(multipliers, kicks, drift, projection, per-BS dots) touches only each BS's
own rows. At M_t >= MIN_MT, with more than one CPU and the OpenBLAS that numpy
loaded running one thread, part of that work runs on one helper thread: the
tail of the BSs in split_bs_loop, and the eigh calls that baselines queues,
one at a time and a few BSs ahead of the sweep. A WMMSE sweep carries its pair
products from sweep to sweep, so past its first sweep it hands the helper only
eigh calls: its amplitude matrices are gathers and its GEMMs stay on the
calling thread.
Only the thread that runs a call changes, so both routes give the same bits
(objective.py says why). Below the gate everything runs inline. With
multithreaded BLAS the gate stays closed: the split was measured slower there.

The helper runs only private loop functions and LAPACK calls, never a public
function of the package, so a tracer that wraps the package's public
functions sees every call of them on the calling thread.

The first call past the gate starts the helper, so importing the package starts
no thread. The helper holds its own BLAS buffers and malloc arena, a few MB at
table1 scale. A forked child drops it (the child has no copy of the thread) and
starts its own.
"""

import contextvars
import os

import numpy as np

# Smallest M_t whose per-BS work goes to the helper. Measured on one-thread
# OpenBLAS and 2 cores: it is the smallest at which handing WMMSE's eigh calls
# over wins at both table1's and high_power's K and BS count, and the objective's
# split wins at table1's (evaluate 1.25x at M_t = 48, 1.02x at 32, 0.96x at 16).
# The RATTLE step's row loops use the same gate: at the smallest shapes that pass
# it (K = 200, M_t = 48; K = 170, M_t = 64) a whole step split took 0.99x its
# inline time, though at K = 200 its row work alone took 1.04x.
MIN_MT = 48
# Fewest complex multiply-adds (K * M_t * pairs) a per-BS GEMM loop needs for the
# split: below about 4M the hand-off costs more than half the loop saves (at
# high_power's K = 20 and 60 pairs evaluate split was 0.55x even at M_t = 128).
SPLIT_MIN_MACS = 5_000_000

_executor = None  # the one-thread executor, created by the first call past the gate
_blas_threads_fn = None  # asks OpenBLAS for its thread count; looked up on first use

# get_num_threads in the OpenBLAS builds that numpy wheels ship (64- and 32-bit integers)
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _find_blas_threads_fn():
    """get_num_threads of the OpenBLAS that numpy loaded, or a stand-in returning 0."""
    import ctypes
    import glob

    root = os.path.dirname(np.__file__)
    # where Linux and Windows wheels (numpy.libs) and macOS wheels (.dylibs) keep it
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:  # RTLD_NOLOAD: only a library this process has already loaded
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for name in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return lambda: 0


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or 0 if it cannot be asked."""
    global _blas_threads_fn
    if _blas_threads_fn is None:
        _blas_threads_fn = _find_blas_threads_fn()
    return _blas_threads_fn()


def executor_for(m_t):
    """The helper's executor for per-BS work with m_t antennas, or None to run inline."""
    global _executor
    if m_t < MIN_MT or _cpus() < 2 or _blas_threads() != 1:
        return None
    if _executor is None:
        from concurrent.futures import ThreadPoolExecutor

        _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ucnprec-helper")
    return _executor


def split_bs_loop(layout, loop, *args):
    """Run loop(start, stop, *args) once over the BSs [0, layout.n_bs).

    loop does per-BS work that writes only the BSs' own rows or columns: the
    objective's per-BS GEMMs or the RATTLE step's row work. Past the gate, and
    with at least SPLIT_MIN_MACS multiply-adds in the objective's per-BS GEMMs
    (the step's row loops use the same test, see MIN_MT), the helper runs
    loop(cut, n_bs, *args), the tail of BSs that holds about half of the
    layout's rows, in a copy of this thread's context (so np.errstate holds
    there too), while this thread runs loop(0, cut, *args); the call returns
    once both have finished. A helper exception re-raises here, and an
    exception here propagates only once the helper's share has finished, so no
    work of a call runs after it returns.
    """
    n_bs, m_t = layout.n_bs, layout.M_t
    if m_t < MIN_MT or layout.n_ut * m_t * layout.n_blocks < SPLIT_MIN_MACS:
        executor = None  # decided before executor_for's system calls: desk's loops stop here
    else:
        executor = executor_for(m_t)
    if executor is None:
        loop(0, n_bs, *args)
        return
    starts = [rows.start for rows in layout.bs_rows] + [layout.n_blocks]
    cut = min(range(n_bs + 1), key=lambda l: abs(2 * starts[l] - layout.n_blocks))
    tail = executor.submit(contextvars.copy_context().run, loop, cut, n_bs, *args)
    try:
        loop(0, cut, *args)
    except BaseException:
        if not tail.cancel():
            tail.exception()  # waits for the helper's share
        raise
    tail.result()


def _forget_executor():
    global _executor
    _executor = None  # a forked child has no copy of the helper thread


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)

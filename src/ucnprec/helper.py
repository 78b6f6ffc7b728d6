"""The one helper thread that shares per-BS work with the main thread.

In a user-centric network each BS's precoder touches only its own channel, so
three kinds of work split by BS: the objective's per-BS GEMMs (the pair
products' H_l @ conj(P_l)^T, the gradient's H_l^T @ (beta A)[:, U_l]), a WMMSE
sweep's grams and eigendecompositions (fixed by its receivers and weights),
and the RATTLE step's row work (multipliers, kicks, drift, projection, per-BS
dots). At M_t >= MIN_MT, with more than one CPU and the OpenBLAS that numpy
loaded running one thread, split_bs_loop calls its caller's closure on a head
of the BSs here and on the tail on the helper, and in ordered_bs_jobs both
threads claim a sweep's gram jobs a few BSs ahead of its updates. Only the
thread that runs a call changes, so both routes give the same bits
(objective.py says why). Below the gate everything runs inline.
With multithreaded BLAS the gate stays closed: the split was measured slower.

The helper runs only its callers' closures and LAPACK calls, never a public
function of the package, so a tracer that wraps the package's public
functions sees every call of them on the calling thread.

The first call past the gate starts the helper, so importing the package starts
no thread. The helper holds its own BLAS buffers and malloc arena, a few MB at
table1 scale. A forked child, which has no copy of the thread, starts its own.
"""

import contextvars
import os
import threading

import numpy as np

# Smallest M_t whose per-BS work goes to the helper. Measured on one-thread
# OpenBLAS and 2 cores: at M_t = 48 a WMMSE sweep sharing its gram jobs took
# 0.68x its inline time at table1's K and BS count and 0.74x at high_power's, and
# the objective's split wins at table1's (evaluate 1.25x at 48, 1.02x at 32, 0.96x
# at 16). The RATTLE step's row loops use the same gate: at the smallest shapes
# that pass it (K = 200, M_t = 48; K = 170, M_t = 64) a whole step split took
# 0.99x its inline time, though at K = 200 its row work alone took 1.04x.
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


def split_bs_loop(layout, loop):
    """Run loop(bs, rows) over all BSs: bs a slice of BSs, rows the slice of their rows.

    loop does per-BS work that writes only its BSs' rows or columns. At
    SPLIT_MIN_MACS multiply-adds in the objective's per-BS GEMMs or more (the
    step's row loops use the same test, see MIN_MT) and past executor_for's
    gate, the helper runs loop on a tail of BSs with about half the rows, in a
    copy of this thread's context (so np.errstate holds there too), while this
    thread runs the head; either may be empty. A helper exception re-raises
    here, and one here propagates once the helper's share has finished: no
    work of a call runs after it returns. Otherwise loop runs once, here.
    """
    n_bs, n_rows = layout.n_bs, layout.n_blocks
    # tested before executor_for's system calls: desk's loops stop here
    big = layout.n_ut * layout.M_t * n_rows >= SPLIT_MIN_MACS
    executor = executor_for(layout.M_t) if big else None
    if executor is None:
        loop(slice(0, n_bs), slice(0, n_rows))
        return
    starts = [rows.start for rows in layout.bs_rows] + [n_rows]
    cut = min(range(n_bs + 1), key=lambda l: abs(2 * starts[l] - n_rows))
    tail = executor.submit(
        contextvars.copy_context().run, loop, slice(cut, n_bs), slice(starts[cut], n_rows)
    )
    try:
        loop(slice(0, cut), slice(0, starts[cut]))
    except BaseException:
        if not tail.cancel():
            tail.exception()  # waits for the helper's share
        raise
    tail.result()


def ordered_bs_jobs(m_t, todo, job, use, ahead):
    """Call use(l, job(l)) on this thread for each BS l in todo, in todo's order.

    job(l) must read nothing that use writes. Past executor_for's gate both
    threads claim the next unclaimed job and run it: the helper always, this
    thread while the result it needs next is not in. Only the `ahead` jobs from
    the one whose result use takes or holds are claimable, so at most `ahead`
    results are held. A job's error (raised here when its result is due) or
    use's stops all claims and propagates once the helper's job has finished:
    no job runs after the call returns. Below the gate it is a plain loop.
    """
    executor = executor_for(m_t)
    if executor is None:
        for l in todo:
            use(l, job(l))
        return
    cond = threading.Condition()
    done = {}  # index in todo -> (result, exception), until use takes it
    claimed = taken = 0  # jobs claimed; index of the result use takes or holds

    def work(i=None):
        """Job i's result, running claimable jobs until it is in (i=None: until all are claimed)."""
        nonlocal claimed
        while True:
            with cond:
                while i not in done and claimed >= min(len(todo), taken + ahead):
                    if i is None and claimed == len(todo):
                        return None
                    cond.wait()
                if i in done:
                    result, exc = done.pop(i)
                    if exc is not None:
                        raise exc
                    return result
                j, claimed = claimed, claimed + 1
            try:
                out = job(todo[j]), None
            except BaseException as exc:
                out = None, exc
            with cond:
                done[j] = out
                if out[1] is not None:
                    claimed = len(todo)  # no job starts after an error
                cond.notify_all()

    share = executor.submit(contextvars.copy_context().run, work)
    try:
        for i, l in enumerate(todo):
            with cond:
                taken = i
                cond.notify_all()  # the helper may claim up to `ahead` past i now
            use(l, work(i))
    finally:
        with cond:
            claimed = len(todo)
            cond.notify_all()
        share.result()


def _forget_executor():
    global _executor
    _executor = None  # a forked child has no copy of the helper thread


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)

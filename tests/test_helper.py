"""helper's two primitives on toy work.

split_bs_loop: how its shares tile the BSs and rows, and its inline route.
ordered_bs_jobs: result order, look-ahead bound, errors, inline route.
"""

import random
import threading
import time
from types import SimpleNamespace

import pytest

from ucnprec import helper

HELPER = "ucnprec-helper_0"
M_T = helper.MIN_MT  # past the gate once open_helper_gate has run


def thread():
    return threading.current_thread().name


def wait_for_idle_helper():
    """Return once the helper has finished all work submitted to it so far."""
    helper._executor.submit(int).result(timeout=60)


def toy_layout(row_counts, m_t=M_T, n_ut=10**6):
    """A layout whose BS l has row_counts[l] rows; the default n_ut passes SPLIT_MIN_MACS."""
    starts = [sum(row_counts[:l]) for l in range(len(row_counts) + 1)]
    return SimpleNamespace(
        n_bs=len(row_counts), n_blocks=starts[-1], M_t=m_t, n_ut=n_ut,
        bs_rows=[slice(a, b) for a, b in zip(starts, starts[1:])],
    )


def split_calls(layout):
    calls = []
    helper.split_bs_loop(layout, lambda bs, rows: calls.append((thread(), bs, rows)))
    return calls


@pytest.mark.parametrize(
    "row_counts, cut",
    [
        ([0, 2, 3, 0, 4, 1, 0], 3),  # rows start 0, 0, 2, 5, 5, 9, 10: BS 3 starts the tail
        ([0, 0, 2, 0, 3, 3], 5),
        ([5], 0),
        ([0, 4, 0], 0),
    ],
    ids=["empty-first-at-cut-last", "empty-in-head", "one-bs", "one-bs-with-rows"],
)
def test_split_shares_tile_bss_and_rows(open_helper_gate, row_counts, cut):
    layout = toy_layout(row_counts)
    calls = sorted(split_calls(layout), key=lambda call: call[0] != "MainThread")
    assert [(name, bs) for name, bs, _ in calls] == [
        ("MainThread", slice(0, cut)), (HELPER, slice(cut, layout.n_bs))
    ]
    (_, _, head), (_, _, tail) = calls
    assert (head.start, head.stop, tail.stop) == (0, tail.start, layout.n_blocks)
    every_row = range(layout.n_blocks)
    for _, bs, rows in calls:
        owned = {i for l in range(bs.start, bs.stop) for i in every_row[layout.bs_rows[l]]}
        assert rows.step is None and set(every_row[rows]) == owned


# 10 rows: K * M_t * 10 one short of SPLIT_MIN_MACS at most, or M_t one short of MIN_MT
@pytest.mark.parametrize(
    "m_t, n_ut", [(M_T, (helper.SPLIT_MIN_MACS - 1) // (M_T * 10)), (M_T - 1, 10**6)]
)
def test_below_the_gate_one_call_over_everything(open_helper_gate, monkeypatch, m_t, n_ut):
    monkeypatch.setattr(helper, "_executor", None)
    layout = toy_layout([0, 2, 3, 0, 4, 1, 0], m_t, n_ut)
    assert split_calls(layout) == [("MainThread", slice(0, 7), slice(0, 10))]
    assert helper._executor is None  # no thread was started


def test_results_come_in_order_when_jobs_finish_out_of_order(open_helper_gate):
    started = threading.Event()  # set once the helper runs a job
    finished, used = [], []

    def job(l):
        if thread() == HELPER:
            started.set()
            time.sleep(0.05)  # meanwhile the main thread finishes later jobs
        else:
            assert started.wait(timeout=60)
        finished.append(l)
        return l * l

    todo = list(range(10))
    helper.ordered_bs_jobs(M_T, todo, job, lambda l, r: used.append((l, r, thread())), 4)
    assert used == [(l, l * l, "MainThread") for l in todo]
    assert sorted(finished) == todo
    assert finished != todo


@pytest.mark.parametrize("ahead", [1, 3])
def test_no_more_than_ahead_results_held(open_helper_gate, ahead):
    lock = threading.Lock()
    rng = random.Random(ahead)
    live = [0, 0]  # jobs started whose result use has not finished with, and the most at once
    threads = set()

    def job(l):
        with lock:
            live[0] += 1
            live[1] = max(live)
            threads.add(thread())
        time.sleep(rng.uniform(0.0, 0.003))
        return l

    def use(l, r):
        time.sleep(rng.uniform(0.0, 0.003))
        with lock:
            live[0] -= 1

    helper.ordered_bs_jobs(M_T, list(range(40)), job, use, ahead)
    assert live[0] == 0
    assert 1 <= live[1] <= ahead
    assert ahead == 1 or threads == {"MainThread", HELPER}


@pytest.mark.parametrize("fails", ["MainThread", HELPER, "use"])
def test_error_propagates_and_no_job_runs_after_return(open_helper_gate, fails):
    closed = threading.Event()  # set once the call has returned
    late, threads = [], set()

    def job(l):
        if closed.is_set():
            late.append(l)
        threads.add(thread())
        time.sleep(0.005)
        if thread() == fails and l >= 2:
            raise KeyError(f"job {l}")
        return l

    def use(l, r):
        if fails == "use" and l == 2:
            raise KeyError("use 2")

    with pytest.raises(KeyError, match="job" if fails != "use" else "use 2"):
        helper.ordered_bs_jobs(M_T, list(range(30)), job, use, 4)
    closed.set()
    wait_for_idle_helper()
    assert late == []
    assert fails == "use" or fails in threads


@pytest.mark.parametrize("fails", ["MainThread", HELPER])
def test_no_job_starts_after_a_job_error(open_helper_gate, fails):
    lock = threading.Lock()
    raised, late = [], []  # the failing job once it has raised; jobs started after that

    def job(l):
        with lock:
            if raised:
                late.append(l)
            elif thread() == fails and l >= 2:
                raised.append(l)
                raise KeyError(f"job {l}")
        time.sleep(0.005)
        return l

    with pytest.raises(KeyError, match="job"):
        helper.ordered_bs_jobs(M_T, list(range(30)), job, lambda l, r: None, 4)
    wait_for_idle_helper()
    assert raised
    assert len(late) <= 1  # one may have started while the error was on its way to be recorded


def test_helper_survives_an_error(open_helper_gate):
    def failing(l):
        raise ValueError("injected")

    with pytest.raises(ValueError, match="injected"):
        helper.ordered_bs_jobs(M_T, [0, 1, 2], failing, lambda l, r: None, 2)
    threads, used = set(), []

    def job(l):
        threads.add(thread())
        time.sleep(0.005)
        return -l

    helper.ordered_bs_jobs(M_T, list(range(12)), job, lambda l, r: used.append(r), 4)
    assert used == [-l for l in range(12)]
    assert HELPER in threads


def test_below_the_gate_runs_inline_in_order(open_helper_gate, monkeypatch):
    monkeypatch.setattr(helper, "_executor", None)
    events = []

    def job(l):
        events.append(("job", l, thread()))
        return l

    def use(l, r):
        events.append(("use", r, thread()))

    helper.ordered_bs_jobs(helper.MIN_MT - 1, [3, 1, 2], job, use, 2)
    assert events == [
        (kind, l, "MainThread") for l in (3, 1, 2) for kind in ("job", "use")
    ]
    assert helper._executor is None  # no thread was started

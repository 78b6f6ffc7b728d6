"""helper.ordered_bs_jobs on toy jobs: result order, look-ahead bound, errors, inline route."""

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
    def no_lock():
        raise AssertionError("a lock below the gate")

    monkeypatch.setattr(helper, "threading", SimpleNamespace(Condition=no_lock))
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

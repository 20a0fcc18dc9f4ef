import multiprocessing
import os

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.linalg.blas import dsyrk

from fieldfit import blas


@pytest.fixture
def fresh_lookup():
    blas._thread_controls.cache_clear()
    yield
    blas._thread_controls.cache_clear()


def test_controls_are_looked_up_once_and_the_count_restored(monkeypatch, fresh_lookup):
    lookups, threads, set_calls = [], [4], []

    def set_threads(n):
        set_calls.append(n)
        threads[0] = n

    def find():
        lookups.append(1)
        return [(lambda: threads[0], set_threads)]

    monkeypatch.setattr(blas, "_find_thread_controls", find)
    with blas.one_blas_thread():
        assert threads[0] == 1
    assert threads[0] == 4
    with pytest.raises(RuntimeError), blas.one_blas_thread():
        raise RuntimeError("restored on the way out")
    assert threads[0] == 4
    assert len(lookups) == 1
    assert set_calls == [1, 4, 1, 4]


def _fake_controls(monkeypatch, threads):
    """Controls over the counts in ``threads``; returns the (library, count) set calls."""
    set_calls = []

    def control(i):
        def set_threads(n):
            set_calls.append((i, n))
            threads[i] = n

        return (lambda: threads[i], set_threads)

    monkeypatch.setattr(blas, "_find_thread_controls", lambda: [control(i) for i in range(len(threads))])
    return set_calls


def test_libraries_on_one_thread_get_no_set_call(monkeypatch, fresh_lookup):
    threads = [1, 1]
    set_calls = _fake_controls(monkeypatch, threads)
    with blas.one_blas_thread(), blas.one_blas_thread():
        assert threads == [1, 1]
    assert threads == [1, 1]
    assert set_calls == []


def test_only_libraries_not_on_one_thread_are_set_and_restored(monkeypatch, fresh_lookup):
    threads = [4, 1]
    set_calls = _fake_controls(monkeypatch, threads)
    with blas.one_blas_thread():
        assert threads == [1, 1]
        with blas.one_blas_thread():
            pass
    assert threads == [4, 1]
    assert set_calls == [(0, 1), (0, 4)]


def test_loaded_openblas_runs_on_one_thread_inside(fresh_lookup):
    controls = blas._thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found in this process")
    before = [get() for get, _ in controls]
    with blas.one_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


def _fit_sized_work_then_count_threads(conn):
    with blas.one_blas_thread():
        w = np.random.default_rng(0).random((256, 600))
        w @ w.T
        cho_factor(dsyrk(1.0, w) + 1e-3 * np.eye(256))
        conn.send(len(os.listdir("/proc/self/task")))
    conn.close()


def test_child_forked_inside_block_stays_on_one_thread(fresh_lookup):
    if not blas._thread_controls():
        pytest.skip("no OpenBLAS thread control found in this process")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads with")
    ctx = multiprocessing.get_context("fork")
    with blas.one_blas_thread():
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fit_sized_work_then_count_threads, args=(send,))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "the child sent nothing"
            n_threads = recv.recv()
        finally:
            child.join(60)
            if child.is_alive():
                child.kill()
    assert not child.is_alive()
    assert child.exitcode == 0
    assert n_threads == 1

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.linalg.blas import dsyrk

import fieldfit
from fieldfit import blas


@pytest.fixture
def fresh_lookup():
    blas._thread_controls.cache_clear()
    yield
    blas._thread_controls.cache_clear()


def _fake_controls(monkeypatch, threads):
    """Controls over the counts in ``threads``; returns the (library, count) set calls and the lookups."""
    set_calls, lookups = [], []

    def control(i):
        def set_threads(n):
            set_calls.append((i, n))
            threads[i] = n

        return (lambda: threads[i], set_threads)

    def find():
        lookups.append(1)
        return [control(i) for i in range(len(threads))]

    monkeypatch.setattr(blas, "_find_thread_controls", find)
    return set_calls, lookups


def test_controls_are_looked_up_once(monkeypatch, fresh_lookup):
    threads = [4]
    set_calls, lookups = _fake_controls(monkeypatch, threads)
    blas.use_one_blas_thread()
    blas.use_one_blas_thread()
    assert len(lookups) == 1
    assert set_calls == [(0, 1)]


def test_libraries_on_one_thread_get_no_set_call(monkeypatch, fresh_lookup):
    threads = [1, 1]
    set_calls, _ = _fake_controls(monkeypatch, threads)
    blas.use_one_blas_thread()
    blas.use_one_blas_thread()
    assert threads == [1, 1]
    assert set_calls == []


def test_only_libraries_not_on_one_thread_are_set_and_stay_set(monkeypatch, fresh_lookup):
    threads = [4, 1]
    set_calls, _ = _fake_controls(monkeypatch, threads)
    blas.use_one_blas_thread()
    assert threads == [1, 1]
    blas.use_one_blas_thread()
    assert threads == [1, 1]
    assert set_calls == [(0, 1)]


def test_loaded_openblas_stays_on_one_thread(fresh_lookup):
    controls = blas._thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found in this process")
    blas.use_one_blas_thread()
    assert [get() for get, _ in controls] == [1] * len(controls)
    w = np.random.default_rng(0).random((256, 600))
    cho_factor(dsyrk(1.0, w) + 1e-3 * np.eye(256))
    assert [get() for get, _ in controls] == [1] * len(controls)


def _fit_sized_work_then_count_threads(conn):
    blas.use_one_blas_thread()
    w = np.random.default_rng(0).random((256, 600))
    w @ w.T
    cho_factor(dsyrk(1.0, w) + 1e-3 * np.eye(256))
    conn.send(len(os.listdir("/proc/self/task")))
    conn.close()


def test_child_forked_after_the_pin_stays_on_one_thread(fresh_lookup):
    if not blas._thread_controls():
        pytest.skip("no OpenBLAS thread control found in this process")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads with")
    ctx = multiprocessing.get_context("fork")
    blas.use_one_blas_thread()
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


# a pooled fit, then an evaluation, in a process started on 2 BLAS threads;
# prints every loaded OpenBLAS's count before and after
_FIT_THEN_EVALUATE = """
import numpy as np
from fieldfit import blas
from fieldfit.adaptive import AdaptiveConfig
from fieldfit.elastic_net import ElasticNetConfig
from fieldfit.fields import box_field_2d
from fieldfit.partition import DictionarySpec, fit_parallel, make_partition

controls = blas._thread_controls()
print(*[get() for get, _ in controls])
field = box_field_2d(8, 8)
cfg = AdaptiveConfig(m_max=0, elastic=ElasticNetConfig(lam1=4.59e-4, lam2=1e-4, tol=1e-6))
surrogate, _ = fit_parallel(
    field, make_partition(field.mesh, 2, 2), cfg, DictionarySpec(sigma=0.13), workers=2
)
surrogate.evaluate(np.random.default_rng(0).random((1000, 2)))
print(*[get() for get, _ in controls])
"""


def test_fit_and_evaluation_leave_every_openblas_on_one_thread():
    if not blas._thread_controls():
        pytest.skip("no OpenBLAS thread control found in this process")
    src = str(Path(fieldfit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _FIT_THEN_EVALUATE],
        env=env, check=True, timeout=120, capture_output=True, text=True,
    ).stdout.splitlines()
    before, after = (line.split() for line in out)
    assert before and set(before) == {"2"}
    assert after == ["1"] * len(before)

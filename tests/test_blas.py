import pytest

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


def test_loaded_openblas_runs_on_one_thread_inside(fresh_lookup):
    controls = blas._thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found in this process")
    before = [get() for get, _ in controls]
    with blas.one_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before

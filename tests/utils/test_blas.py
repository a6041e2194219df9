"""BLAS thread budgets: set/get, scoped limits, the per-process share."""

import os

import pytest

from repro.utils import blas
from repro.utils.blas import (
    blas_threads,
    cap_blas_threads,
    limit_blas_threads,
    thread_budget,
)

needs_openblas = pytest.mark.skipif(
    blas_threads() is None,
    reason="numpy's BLAS exposes no OpenBLAS thread control here",
)


@needs_openblas
class TestThreadCount:
    def test_set_get_round_trip(self):
        before = blas_threads()
        with limit_blas_threads(before):
            assert cap_blas_threads(1) == before
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_limit_restores_the_previous_count(self):
        before = blas_threads()
        with limit_blas_threads(1) as inside:
            assert inside == blas_threads() == 1
        assert blas_threads() == before

    def test_limit_restores_on_exception(self):
        before = blas_threads()
        with pytest.raises(RuntimeError, match="boom"):
            with limit_blas_threads(1):
                raise RuntimeError("boom")
        assert blas_threads() == before

    def test_never_raises_above_the_starting_count(self):
        with limit_blas_threads(1):
            with limit_blas_threads(2) as inside:
                assert inside == blas_threads() == 1
            assert cap_blas_threads(64) == 1
            assert blas_threads() == 1

    def test_count_below_one_is_clamped(self):
        with limit_blas_threads(0) as inside:
            assert inside == 1


class TestBudget:
    @pytest.fixture()
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

    @pytest.mark.parametrize("processes, threads", [(1, 2), (2, 1), (4, 1)])
    def test_cores_divided_among_processes(self, two_cores, processes,
                                           threads):
        assert thread_budget(processes) == threads


class TestWithoutThreadControl:
    @pytest.fixture()
    def symbols_missing(self, monkeypatch):
        """numpy's BLAS library loads but exports no thread symbols."""
        blas._api.cache_clear()
        monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: object())
        yield
        monkeypatch.undo()
        blas._api.cache_clear()

    def test_every_helper_is_a_no_op(self, symbols_missing):
        assert blas._api() is None
        assert blas_threads() is None
        assert cap_blas_threads(1) is None
        with limit_blas_threads(1) as inside:
            assert inside is None
        assert blas_threads() is None

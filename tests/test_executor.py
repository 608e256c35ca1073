"""Executors: serial / thread equivalence and chunk contracts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import (
    SerialExecutor,
    ThreadExecutor,
    default_chunk_rows,
)


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(0).integers(0, 10, 100_000)


def count_kernel_factory(data):
    def kernel(sl: slice) -> np.ndarray:
        return np.bincount(data[sl], minlength=10)

    return kernel


class TestSerial:
    def test_partials_cover_all_rows(self, data):
        ex = SerialExecutor()
        parts = ex.map_chunks(count_kernel_factory(data), len(data), 7_777)
        assert np.array_equal(np.sum(parts, axis=0), np.bincount(data, minlength=10))

    def test_empty_table(self):
        ex = SerialExecutor()
        assert ex.map_chunks(lambda sl: 1, 0) == []


class TestThread:
    def test_equals_serial(self, data):
        kernel = count_kernel_factory(data)
        want = SerialExecutor().map_chunks(kernel, len(data), 9_999)
        with ThreadExecutor(4) as ex:
            got = ex.map_chunks(kernel, len(data), 9_999)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)

    def test_team_persists_across_calls(self, data):
        kernel = count_kernel_factory(data)
        with ThreadExecutor(2) as ex:
            ex.map_chunks(kernel, len(data))
            team = ex._team
            ex.map_chunks(kernel, len(data))
            assert ex._team is team

    def test_close_and_reopen(self, data):
        kernel = count_kernel_factory(data)
        ex = ThreadExecutor(2)
        ex.map_chunks(kernel, len(data))
        ex.close()
        # A closed executor lazily builds a new team.
        ex.map_chunks(kernel, len(data))
        ex.close()


class TestChunkSizing:
    def test_default_chunk_rows_scales_with_workers(self):
        assert default_chunk_rows(1_000_000, 1) >= default_chunk_rows(1_000_000, 8)

    def test_minimum_floor(self):
        assert default_chunk_rows(10, 64) == 65_536


class TestCancellation:
    def test_expired_token_cancels_before_first_chunk(self, data):
        from repro.engine.executor import CancelToken, QueryCancelled

        token = CancelToken(deadline_s=-1.0)  # already past
        ex = SerialExecutor()
        with pytest.raises(QueryCancelled):
            ex.map_chunks(
                count_kernel_factory(data), len(data), 10_000, cancel=token
            )

    def test_token_cancels_mid_scan(self, data):
        from repro.engine.executor import CancelToken, QueryCancelled

        token = CancelToken()
        seen = {"chunks": 0}

        def kernel(sl: slice):
            seen["chunks"] += 1
            if seen["chunks"] == 3:
                token.cancel("test says stop")
            return np.bincount(data[sl], minlength=10)

        ex = SerialExecutor()
        with pytest.raises(QueryCancelled, match="test says stop"):
            ex.map_chunks(kernel, len(data), 5_000, cancel=token)
        # Cooperative: at most one chunk ran after the cancel fired.
        assert seen["chunks"] <= 4

    def test_unset_token_is_free(self, data):
        import time as _time

        from repro.engine.executor import CancelToken

        # deadline_s is an absolute monotonic timestamp.
        token = CancelToken(deadline_s=_time.monotonic() + 3600.0)
        ex = SerialExecutor()
        parts = ex.map_chunks(
            count_kernel_factory(data), len(data), 7_777, cancel=token
        )
        assert np.array_equal(
            np.sum(parts, axis=0), np.bincount(data, minlength=10)
        )

    def test_thread_executor_raises_query_cancelled(self, data):
        from repro.engine.executor import CancelToken, QueryCancelled

        token = CancelToken()
        token.cancel("nope")
        with ThreadExecutor(2) as ex:
            with pytest.raises(QueryCancelled):
                ex.map_chunks(
                    count_kernel_factory(data), len(data), 5_000, cancel=token
                )

"""Executors: serial / thread / process equivalence and chunk contracts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import (
    ProcessExecutor,
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


class TestProcess:
    def test_equals_serial(self, data):
        kernel = count_kernel_factory(data)
        want = np.sum(SerialExecutor().map_chunks(kernel, len(data), 25_000), axis=0)
        with ProcessExecutor(2) as ex:
            got = np.sum(ex.map_chunks(kernel, len(data), 25_000), axis=0)
        assert np.array_equal(want, got)

    def test_closure_over_arrays_works(self):
        """Kernels closing over parent arrays must work via fork COW."""
        big = np.arange(1_000_000, dtype=np.int64)

        def kernel(sl: slice) -> int:
            return int(big[sl].sum())

        with ProcessExecutor(2) as ex:
            total = sum(ex.map_chunks(kernel, len(big), 250_000))
        assert total == big.sum()

    def test_concurrent_map_calls_do_not_cross_kernels(self):
        """Regression: the fork-kernel handoff global is guarded by a
        lock, so concurrent map_chunks calls from different threads can
        never fork children holding the other call's kernel."""
        import threading

        a = np.arange(60_000, dtype=np.int64)
        b = np.arange(60_000, dtype=np.int64) * 3
        results: dict[str, int] = {}
        errors: list[BaseException] = []

        def run(name: str, arr: np.ndarray) -> None:
            def kernel(sl: slice) -> int:
                return int(arr[sl].sum())

            try:
                with ProcessExecutor(2) as ex:
                    for _ in range(3):
                        results[name] = sum(
                            ex.map_chunks(kernel, len(arr), 15_000)
                        )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=("a", a)),
            threading.Thread(target=run, args=("b", b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results["a"] == int(a.sum())
        assert results["b"] == int(b.sum())


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

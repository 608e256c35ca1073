"""Parallel runtime: chunking, thread team, STREAM."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ThreadTeam, row_chunks, stream_triad


class TestChunking:
    def test_exact_division(self):
        chunks = row_chunks(100, 25)
        assert [c.stop - c.start for c in chunks] == [25, 25, 25, 25]

    def test_remainder(self):
        chunks = row_chunks(10, 4)
        assert [(c.start, c.stop) for c in chunks] == [(0, 4), (4, 8), (8, 10)]

    def test_empty_table(self):
        assert row_chunks(0, 10) == []

    def test_bad_args(self):
        with pytest.raises(ValueError):
            row_chunks(10, 0)
        with pytest.raises(ValueError):
            row_chunks(-1, 10)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 10_000), c=st.integers(1, 3_000))
    def test_partition_property(self, n, c):
        """Chunks must tile [0, n) exactly: contiguous, disjoint, complete."""
        chunks = row_chunks(n, c)
        assert len(chunks) == -(-n // c)
        pos = 0
        for sl in chunks:
            assert sl.start == pos
            assert sl.stop > sl.start
            pos = sl.stop
        assert pos == n


class TestThreadTeam:
    def test_results_ordered(self):
        with ThreadTeam(4) as team:
            got = team.run(lambda x: x * x, list(range(20)))
        assert got == [x * x for x in range(20)]

    def test_actually_concurrent(self):
        """Two blocking tasks must overlap on a 2-thread team."""
        barrier = threading.Barrier(2, timeout=5)

        def task(_):
            barrier.wait()  # deadlocks unless both run concurrently
            return True

        with ThreadTeam(2) as team:
            assert team.run(task, [0, 1]) == [True, True]

    def test_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("x was 3")
            return x

        with ThreadTeam(2) as team:
            with pytest.raises(ValueError, match="x was 3"):
                team.run(boom, list(range(6)))

    def test_team_reusable_after_error(self):
        with ThreadTeam(2) as team:
            with pytest.raises(RuntimeError):
                team.run(lambda x: (_ for _ in ()).throw(RuntimeError("no")), [1])
            assert team.run(lambda x: x, [5]) == [5]

    def test_closed_team_rejects_work(self):
        team = ThreadTeam(1)
        team.close()
        with pytest.raises(RuntimeError, match="closed"):
            team.run(lambda x: x, [1])

    def test_close_idempotent(self):
        team = ThreadTeam(1)
        team.close()
        team.close()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ThreadTeam(0)

    def test_empty_items(self):
        with ThreadTeam(2) as team:
            assert team.run(lambda x: x, []) == []


class TestStream:
    def test_returns_positive_bandwidths(self):
        r = stream_triad(n=1_000_000, repeats=1)
        assert r.copy_gbs > 0
        assert r.scale_gbs > 0
        assert r.add_gbs > 0
        assert r.triad_gbs > 0
        assert r.best >= r.triad_gbs

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            stream_triad(n=10)

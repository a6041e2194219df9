"""The multi-process serving tier: worker processes over a shared pool.

The contract under test is the PR 9 tentpole: a
:class:`WorkerPoolService` of N worker processes generating into a
shared-memory ring must be **byte-identical** to the in-process
:class:`SynthesisService` for the same seeded stream — across worker
counts, across crash/retry recovery, and on both the block (generate)
and pooled (zero-copy fast) paths, and in the response text its workers
render — while leaving no shared-memory segments behind when it closes.

Small batch geometry everywhere: the ring wraps several times per test,
so slot recycling (the part that could silently corrupt the stream) is
always exercised.
"""

import gc
import os
import signal
import time

import numpy as np
import pytest

from repro.data.io import RowRenderer
from repro.serve import SynthesisService
from repro.serve.server import WorkerPoolError, WorkerPoolService, procpool
from repro.utils.blas import blas_threads, thread_budget
from repro.utils.faults import FaultPlan

BATCH = 64


def make_pool(populated_registry, **overrides):
    kwargs = dict(workers=2, pool_size=128, batch_rows=BATCH, seed=3,
                  restart_backoff_s=0.001)
    kwargs.update(overrides)
    return WorkerPoolService(populated_registry, "tiny", **kwargs)


def reference_stream(trained_gan, total, counts):
    """The same slices taken from the in-process threaded service."""
    service = SynthesisService(trained_gan, pool_size=128, batch_rows=BATCH,
                               seed=3)
    taken, base = service.take_block(counts)
    assert base == 0
    return taken


def drain_blocks(pool, counts):
    taken, base = pool.take_block(counts)
    return taken, base


def shm_segments():
    """This process's pool segments (``rpool<pid>_<seq><tag>``): another
    test process or server may create and drop its own meanwhile."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    own = f"rpool{os.getpid()}_"
    return sorted(name for name in os.listdir("/dev/shm")
                  if name.startswith(own))


def rendered(schema, values, fmt: str) -> bytes:
    """The text the threaded tier renders in-process for ``values``."""
    renderer = RowRenderer(schema)
    return renderer.csv(values) if fmt == "csv" else renderer.ndjson(values)


class TestBitEquality:
    def test_mixed_block_takes_match_threaded_service(self, populated_registry,
                                                      trained_gan):
        counts = [13, 50, 1, 200, 64, 300, 7, 7, 100]
        expected = reference_stream(trained_gan, sum(counts), counts)
        pool = make_pool(populated_registry)
        try:
            taken, base = drain_blocks(pool, counts)
            assert base == 0
            for got, want in zip(taken, expected):
                np.testing.assert_array_equal(got, want)
        finally:
            pool.close()

    def test_stream_is_worker_count_invariant(self, populated_registry):
        counts = [40, 9, 111, 64, 200]
        streams = {}
        for workers in (1, 3):
            pool = make_pool(populated_registry, workers=workers)
            try:
                taken, base = drain_blocks(pool, counts)
                assert base == 0
                streams[workers] = np.concatenate(taken)
            finally:
                pool.close()
        np.testing.assert_array_equal(streams[1], streams[3])

    def test_pooled_fast_path_is_zero_copy_and_identical(self,
                                                         populated_registry,
                                                         trained_gan):
        expected = reference_stream(trained_gan, 32, [32])[0]
        pool = make_pool(populated_registry)
        try:
            deadline = time.monotonic() + 30
            while pool.pooled_rows < 32:
                pool.replenish()
                assert time.monotonic() < deadline, "pool never filled"
                time.sleep(0.005)
            hit = pool.take_pooled(32)
            assert hit is not None
            values, offset = hit
            assert offset == 0
            np.testing.assert_array_equal(values, expected)
            # The fast path serves a read-only *view* of the shared ring,
            # not a copy — the tentpole's zero-copy claim.
            assert not values.flags.writeable
            assert values.base is not None
            del values, hit
            gc.collect()  # release the slot leases before teardown
        finally:
            pool.close()


class TestRenderedText:
    """Takes that name a format: the workers' rendered text, copied by the
    front end, must equal the threaded tier's in-process rendering."""

    def test_block_takes_match_threaded_rendering(self, populated_registry,
                                                  trained_gan):
        # 4 slots of 64 rows: the 882 rows wrap the ring three times, and
        # most requests straddle a block boundary.
        counts = [13, 50, 1, 200, 64, 300, 7, 7, 100, 140]
        formats = ["csv", "json"] * 5
        expected = reference_stream(trained_gan, sum(counts), counts)
        pool = make_pool(populated_registry)
        try:
            assert pool.worker_info()["ring_slots"] * BATCH < sum(counts)
            first, base = pool.take_block(counts[:4], formats=formats[:4])
            rest, _ = pool.take_block(counts[4:], formats=formats[4:])
            assert base == 0
            for got, want, fmt in zip(first + rest, expected, formats):
                assert got == rendered(pool.schema, want, fmt)
            assert pool.profile.snapshot()["render"]["count"] >= 1
        finally:
            pool.close()

    def test_pooled_take_copies_the_text(self, populated_registry,
                                         trained_gan):
        expected = reference_stream(trained_gan, 96, [40, 56])
        pool = make_pool(populated_registry)
        try:
            deadline = time.monotonic() + 30
            while pool.pooled_rows < 96:
                pool.replenish()
                assert time.monotonic() < deadline, "pool never filled"
                time.sleep(0.005)
            for want, offset, fmt in zip(expected, (0, 40), ("json", "csv")):
                text, base = pool.take_pooled(len(want), fmt=fmt)
                assert base == offset
                assert text == rendered(pool.schema, want, fmt)
            assert pool._leases == [0] * pool._S  # a copy holds no lease
        finally:
            pool.close()

    def test_sigkill_mid_stream_rerenders_identical_text(
            self, populated_registry, trained_gan):
        counts = [100, 300, 250, 64, 86]
        expected = reference_stream(trained_gan, 800, [800])[0]
        pool = make_pool(populated_registry)
        try:
            first, _ = pool.take_block(counts[:1], formats=["csv"])
            os.kill(pool.worker_info()["pids"][0], signal.SIGKILL)
            rest, _ = pool.take_block(counts[1:], formats=["csv"] * 4)
            assert b"".join(first + rest) == rendered(pool.schema, expected,
                                                      "csv")
            assert pool.worker_info()["crashes"] >= 1
        finally:
            pool.close()

    def test_render_overflow_fails_the_block_loudly(self, populated_registry,
                                                    monkeypatch):
        # A ring slot too small for its block's text: the worker reports
        # an error (retried, then fatal) — never a truncated body.
        def cramped(ring, slot, values):
            ring.renderer.render_into(values, ring.text[0][slot][:10],
                                      ring.offsets[slot, 0],
                                      ring.text[1][slot],
                                      ring.offsets[slot, 1])

        monkeypatch.setattr(procpool._TextRing, "render", cramped)
        pool = make_pool(populated_registry, workers=1, block_retries=1)
        try:
            with pytest.raises(WorkerPoolError, match="bytes"):
                pool.take_block([BATCH], formats=["csv"])
        finally:
            pool.close()


class TestCrashRecovery:
    def test_sigkill_mid_stream_is_transparent_and_bit_exact(
            self, populated_registry, trained_gan):
        counts = [100, 300, 250, 64, 86]
        expected = reference_stream(trained_gan, 800, [800])[0]
        pool = make_pool(populated_registry)
        try:
            first, base = pool.take_block(counts[:1])
            assert base == 0
            os.kill(pool.worker_info()["pids"][0], signal.SIGKILL)
            rest, _ = pool.take_block(counts[1:])
            got = np.concatenate(first + rest)
            np.testing.assert_array_equal(got, expected)
            info = pool.worker_info()
            assert info["crashes"] >= 1
            deadline = time.monotonic() + 30
            while pool.worker_info()["alive"] < 2:
                assert time.monotonic() < deadline, "worker never respawned"
                time.sleep(0.005)
            assert pool.health == "ok"
        finally:
            pool.close()

    def test_fault_seam_kills_propagate_into_forked_workers(
            self, populated_registry):
        # SystemExit armed at pool.block escapes the worker loop's
        # ``except Exception`` and kills the process — the fork-inherited
        # deterministic stand-in for a real SIGKILL at the seam.
        # Every respawned worker forks a fresh copy of the armed plan (the
        # parent never traverses the seam), so each worker life completes
        # one block then dies; queued blocks collect one lost attempt per
        # crash while assigned, hence the generous block_retries.
        plan = FaultPlan().arm("pool.block", "raise", after=1,
                               exc=SystemExit(13))
        with plan:
            pool = make_pool(populated_registry, workers=1, block_retries=10)
            try:
                taken, base = pool.take_block([150, 150])
                assert base == 0
                assert sum(len(t) for t in taken) == 300
                assert pool.worker_info()["crashes"] >= 1
            finally:
                pool.close()

    def test_crash_streak_past_max_restarts_fails_the_pool(
            self, populated_registry):
        plan = FaultPlan().arm("pool.block", "raise", times=None,
                               exc=SystemExit(13))
        with plan:
            pool = make_pool(populated_registry, workers=1, max_restarts=2)
            try:
                with pytest.raises(WorkerPoolError):
                    pool.take_block([BATCH])
                assert pool.health == "dead"
            finally:
                pool.close()


class TestShmHygiene:
    def test_close_unlinks_every_segment(self, populated_registry):
        before = shm_segments()
        pool = make_pool(populated_registry)
        try:
            pool.take_block([32])
            created = set(shm_segments()) - set(before)
            # Decoded rows, latents and rendered text.
            assert sorted(name[-1] for name in created) == ["d", "t", "z"]
        finally:
            pool.close()
        assert shm_segments() == before

    def test_no_leak_after_chaos_kill(self, populated_registry):
        before = shm_segments()
        pool = make_pool(populated_registry)
        try:
            pool.take_block([32])
            for pid in pool.worker_info()["pids"]:
                if pid:
                    os.kill(pid, signal.SIGKILL)
            # Recovery respawns workers and the stream continues.
            taken, _ = pool.take_block([96])
            assert sum(len(t) for t in taken) == 96
        finally:
            pool.close()
        assert shm_segments() == before

    def test_close_is_idempotent(self, populated_registry):
        pool = make_pool(populated_registry)
        pool.take_block([16])
        pool.close()
        pool.close()
        assert pool.health == "dead"


class TestBoundedWaits:
    def test_take_block_wait_is_bounded(self, populated_registry,
                                        monkeypatch):
        # Workers that never land a block must not hang the caller: the
        # take fails the pool (a 503 over HTTP) once its wait runs out.
        monkeypatch.setattr(procpool, "_TAKE_TIMEOUT_S", 0.2)
        plan = FaultPlan().arm("pool.block", "delay", times=None,
                               delay_s=1.0)
        with plan:
            pool = make_pool(populated_registry, workers=1)
            try:
                started = time.monotonic()
                with pytest.raises(WorkerPoolError, match="waited"):
                    pool.take_block([BATCH])
                assert time.monotonic() - started < 0.9
                assert pool.health == "dead"
            finally:
                pool.close()


class TestBlasBudget:
    def test_worker_info_reports_each_workers_blas_threads(
            self, populated_registry):
        parent = blas_threads()
        expected = None if parent is None else min(parent, thread_budget(2))
        pool = make_pool(populated_registry, workers=2)
        try:
            # Blocks 0 and 1 go to ranks 0 and 1, and each worker reports
            # its budget before its first block.
            pool.take_block([2 * BATCH])
            assert pool.worker_info()["blas_threads"] == [expected, expected]
        finally:
            pool.close()
        assert blas_threads() == parent  # the front end keeps its count


@pytest.mark.chaos
@pytest.mark.slow
class TestKillAndContinue:
    ITERATIONS = 200
    ROWS = 48

    def test_sigkill_loop_never_wedges_the_pool(self, populated_registry,
                                                trained_gan):
        # A worker killed while it writes a result must never silence the
        # others: every iteration kills a random worker at a random moment
        # of its block, and the stream must carry on bit for bit.
        total = self.ITERATIONS * self.ROWS
        expected = reference_stream(trained_gan, total, [total])[0]
        rng = np.random.default_rng(11)
        # Only this process's rings: the loop is long enough for another
        # test process to create and drop its own meanwhile.
        own = f"rpool{os.getpid()}_"
        before = [name for name in shm_segments() if name.startswith(own)]
        pool = make_pool(populated_registry, max_restarts=self.ITERATIONS,
                         block_retries=self.ITERATIONS)
        try:
            for i in range(self.ITERATIONS):
                pool.replenish()
                time.sleep(rng.uniform(0.0, 0.003))
                pids = pool.worker_info()["pids"]
                if pids:
                    try:
                        os.kill(pids[rng.integers(len(pids))],
                                signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                (taken,), base = pool.take_block([self.ROWS])
                assert base == i * self.ROWS
                np.testing.assert_array_equal(
                    taken, expected[base:base + self.ROWS])
            assert pool.worker_info()["crashes"] >= self.ITERATIONS // 4
        finally:
            pool.close()
        assert [name for name in shm_segments()
                if name.startswith(own)] == before

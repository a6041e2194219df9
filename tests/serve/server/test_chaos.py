"""Chaos suite: injected faults must surface as the *designed* failure modes.

Every test arms a deterministic :class:`FaultPlan` at one of the stack's
injection seams and asserts the documented recovery behaviour — worker
supervision and poison quarantine, deadline drops, corrupt-artifact
503s, dead-batcher eviction, mid-swap registry recovery — rather than
merely that "an error happened".
"""

import http.client
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.serve import ModelRegistry, SynthesisService, SynthesisServer
from repro.serve.registry import CorruptArtifactError, RegistryError
from repro.serve.server import (
    BatcherDead,
    CoalescingBatcher,
    DeadlineExceeded,
    ModelRouter,
    ProtocolError,
    ServerError,
    SynthesisClient,
    WorkerCrashed,
)
from repro.utils.faults import FaultError, FaultPlan

pytestmark = pytest.mark.chaos

SEED = 11


@pytest.fixture()
def server(populated_registry):
    # pool_size=0 keeps every request on the worker path: health recovery
    # ("degraded" clears on the next clean tick) stays observable instead
    # of requests short-circuiting through the sample pool.
    with SynthesisServer(populated_registry, port=0, seed=SEED,
                         pool_size=0, stream_threshold_rows=64,
                         stream_chunk_rows=16,
                         max_request_rows=10_000) as running:
        yield running


@pytest.fixture()
def client(server):
    with SynthesisClient(port=server.port) as connected:
        yield connected


def fast_batcher(service, **overrides):
    kwargs = dict(restart_backoff_s=0.001, max_backoff_s=0.01)
    kwargs.update(overrides)
    return CoalescingBatcher(service, **kwargs)


class TestWorkerSupervision:
    """Crash/restart/quarantine semantics at the batcher level."""

    def test_crash_gets_one_transparent_bit_exact_retry(self, trained_gan):
        service = SynthesisService(trained_gan, seed=3)
        batcher = fast_batcher(service)
        try:
            with FaultPlan().arm("batcher.tick", times=1) as plan:
                values, offset = batcher.submit(4)
            assert plan.fired("batcher.tick") == 1
            # The retried response is the exact slice the crashed tick
            # would have produced: offset 0 of the seeded stream.
            direct = trained_gan.record_sampler().sample_table(
                4, rng=np.random.default_rng(3)
            )
            assert offset == 0
            assert np.array_equal(values, direct.values)
            supervision = batcher.supervision()
            assert supervision["crashes"] == 1
            assert supervision["restarts"] == 1
            assert supervision["poisoned"] == 0
            assert supervision["health"] == "ok"  # clean tick reset it
        finally:
            batcher.close()

    def test_poison_request_quarantined_after_two_kills(self, trained_gan):
        service = SynthesisService(trained_gan, seed=3)
        batcher = fast_batcher(service)
        try:
            with FaultPlan().arm("batcher.tick", times=2):
                with pytest.raises(WorkerCrashed):
                    batcher.submit(4)  # killed the worker twice: quarantined
            values, offset = batcher.submit(3)  # the batcher survived it
            assert len(values) == 3
            supervision = batcher.supervision()
            assert supervision["poisoned"] == 1
            assert supervision["crashes"] == 2
            assert supervision["health"] == "ok"
        finally:
            batcher.close()

    def test_crash_streak_past_max_restarts_is_dead(self, trained_gan):
        service = SynthesisService(trained_gan, seed=3)
        batcher = fast_batcher(service, max_restarts=1, poison_strikes=100)
        try:
            with FaultPlan().arm("batcher.tick", times=None):
                # The in-flight request dies with the crash itself; only
                # work still queued drains with BatcherDead.
                with pytest.raises(WorkerCrashed):
                    batcher.submit(4)
            assert batcher.health == "dead"
            with pytest.raises(BatcherDead):
                batcher.submit(1)  # rejected at admission, no hang
        finally:
            batcher.close()

    def test_mid_stream_crash_truncates_after_served_chunks(self, trained_gan):
        service = SynthesisService(trained_gan, seed=3)
        batcher = fast_batcher(service)
        try:
            with FaultPlan().arm("batcher.tick", after=1, times=1):
                stream = batcher.submit_stream(32, chunk_rows=8)
                iterator = iter(stream)
                values, offset = next(iterator)  # chunk 1 arrives intact
                assert offset == 0
                assert len(values) == 8
                with pytest.raises(WorkerCrashed):
                    for _ in iterator:
                        pass
            # The dropped stream never blocks recovery.
            values, _ = batcher.submit(2)
            assert len(values) == 2
            assert batcher.supervision()["health"] == "ok"
        finally:
            batcher.close()


class TestDeadlinesAtTheBatcher:
    def test_expired_deadline_rejected_at_admission(self, trained_gan):
        service = SynthesisService(trained_gan, seed=3)
        batcher = fast_batcher(service)
        try:
            with pytest.raises(DeadlineExceeded):
                batcher.submit(4, deadline=time.monotonic() - 0.001)
            with pytest.raises(DeadlineExceeded):
                batcher.submit_stream(100, chunk_rows=10,
                                      deadline=time.monotonic() - 0.001)
        finally:
            batcher.close()

    def test_queued_expired_work_never_reaches_the_generator(self, trained_gan):
        service = SynthesisService(trained_gan, seed=3)
        batcher = fast_batcher(service)
        try:
            results = {}

            def slow_first_request():
                results["a"] = batcher.submit(8)

            with FaultPlan().arm("batcher.tick", "delay", delay_s=0.4,
                                 times=1):
                thread = threading.Thread(target=slow_first_request)
                thread.start()
                time.sleep(0.1)  # the worker is now sleeping inside A's tick
                with pytest.raises(DeadlineExceeded):
                    batcher.submit(4, deadline=time.monotonic() + 0.05)
                thread.join(timeout=5)
            assert not thread.is_alive()
            assert len(results["a"][0]) == 8
            # The expired request consumed nothing from the record stream.
            assert service.stream_position == 8
            assert batcher.supervision()["deadline_drops"] == 1
        finally:
            batcher.close()


class TestServerChaos:
    """The ISSUE's four named scenarios, end to end over HTTP."""

    def test_worker_killed_mid_stream_truncates_then_recovers(self, server,
                                                              client):
        with FaultPlan().arm("batcher.tick", after=2, times=1) as plan:
            with pytest.raises(ProtocolError, match="truncated"):
                client.sample("tiny", 128)  # streams in 16-row chunks
            assert plan.fired("batcher.tick") == 1
        # The worker restarted: the same server keeps serving.
        reply = client.sample("tiny", 8)
        assert len(reply["rows"]) == 8
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["models"].values()) == {"ok"}
        supervision = client.metrics()["models"]["tiny"]["supervision"]
        assert supervision["crashes"] == 1
        assert supervision["restarts"] == 1

    def test_corrupt_artifact_is_503_and_serves_after_repair(self, server,
                                                             client):
        plan = FaultPlan().arm("registry.read", times=1,
                               exc=CorruptArtifactError("injected bit rot"))
        with plan:
            with pytest.raises(ServerError) as excinfo:
                client.sample("tiny", 4)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after_s is not None
        # "Repaired" (the fault disarmed): the same ref now loads and serves.
        reply = client.sample("tiny", 4)
        assert len(reply["rows"]) == 4
        assert client.health()["models"] == {"tiny": "ok"}

    def test_failed_worker_pool_is_503_and_serves_after_reload(
            self, populated_registry):
        # Every forked worker inherits the armed plan and dies on its first
        # block, so the pool fails after its crash streak.
        plan = FaultPlan().arm("pool.block", times=None, exc=SystemExit(13))
        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             server_workers=1) as running:
            with SynthesisClient(port=running.port) as client:
                with plan:
                    with pytest.raises(ServerError) as excinfo:
                        client.sample("tiny", 4)
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after_s is not None
                # The router evicts the dead pool; its replacement forks
                # with the plan disarmed and serves.
                reply = client.sample("tiny", 4)
                assert len(reply["rows"]) == 4

    def test_deadline_expired_queued_request_gets_504(self, server, client):
        slow = threading.Thread(target=client.sample, args=("tiny", 8))
        with FaultPlan().arm("batcher.tick", "delay", delay_s=0.4, times=1):
            slow.start()
            time.sleep(0.1)
            with SynthesisClient(port=server.port) as second:
                with pytest.raises(ServerError) as excinfo:
                    second.sample("tiny", 4, deadline_ms=50)
            slow.join(timeout=5)
        assert not slow.is_alive()
        assert excinfo.value.status == 504
        metrics = client.metrics()
        model = metrics["models"]["tiny"]
        assert model["supervision"]["deadline_drops"] == 1
        # The dropped request never touched the record stream: only the
        # slow request's 8 rows were generated and served.
        assert model["stream_position"] == 8
        assert metrics["responses"]["504"] == 1

    def test_malformed_deadline_header_is_400(self, server):
        for bad in ("soon", "-5", "0"):
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            conn.request("POST", "/models/tiny/sample",
                         body=json.dumps({"n": 1}).encode(),
                         headers={"Content-Type": "application/json",
                                  "X-Deadline-Ms": bad})
            response = conn.getresponse()
            body = json.loads(response.read())
            conn.close()
            assert response.status == 400, bad
            assert "X-Deadline-Ms" in body["error"]

    def test_disconnect_storm_leaves_server_healthy(self, server, client):
        def rude_client():
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=10)
            try:
                conn.request("POST", "/models/tiny/sample",
                             body=json.dumps({"n": 512, "format": "csv"}).encode(),
                             headers={"Content-Type": "application/json",
                                      "Accept": "text/csv"})
                response = conn.getresponse()
                response.read(64)  # take a sip of the stream, then hang up
            except OSError:
                pass
            finally:
                conn.close()

        threads = [threading.Thread(target=rude_client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        # The storm is over; the server still answers and serves.
        health = client.health()
        assert health["status"] == "ok"
        assert health["models"] == {"tiny": "ok"}
        assert len(client.sample("tiny", 8)["rows"]) == 8
        assert client.metrics()["models"]["tiny"]["supervision"]["crashes"] == 0


class TestDeadModelEviction:
    def test_router_evicts_and_reloads_a_dead_model(self, populated_registry):
        router = ModelRouter(populated_registry, pool_size=0)
        try:
            entry = router.get("tiny")
            with FaultPlan().arm("batcher.tick", times=None):
                deadline = time.monotonic() + 30
                while (entry.batcher.health != "dead"
                       and time.monotonic() < deadline):
                    with pytest.raises((WorkerCrashed, BatcherDead)):
                        entry.batcher.submit(1)
            assert entry.batcher.health == "dead"

            # The next routed request replaces the dead worker wholesale.
            fresh = router.get("tiny")
            assert fresh is not entry
            assert fresh.batcher.health == "ok"
            values, offset = fresh.batcher.submit(3)
            assert len(values) == 3
            assert router.metrics()["dead_evictions"] == 1
            assert router.health() == {"tiny": "ok"}
        finally:
            router.close()


class TestRegistryCrashWindow:
    """The re-registration swap's SIGKILL window (satellite 1)."""

    def test_fault_in_commit_window_restores_previous_model(self, tmp_path,
                                                            trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        before = registry.manifest("m")
        with FaultPlan().arm("registry.commit"):
            with pytest.raises(FaultError):
                registry.register("m", trained_gan, overwrite=True)
        # The crash handler put the previous registration back in place.
        assert registry.manifest("m") == before
        assert registry.load("m").sample(2).n_rows == 2
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith((".trash-", ".stage-"))]
        assert leftovers == []

    def test_sigkill_window_survivor_is_restored_on_resolve(self, tmp_path,
                                                            trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        # Simulate SIGKILL between the two renames: the only good copy
        # sits in trash, the final path is gone, the stage is incomplete.
        os.replace(tmp_path / "m", tmp_path / f".trash-m-{os.getpid()}")
        assert not (tmp_path / "m").exists()

        recovered = ModelRegistry(tmp_path)  # a later process
        assert recovered.resolve("m") == "m"
        assert (tmp_path / "m").is_dir()
        assert recovered.load("m").sample(2).n_rows == 2

    def test_stale_trash_of_a_completed_swap_is_not_resurrected(self, tmp_path,
                                                                trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        registry.register("m", trained_gan, overwrite=True)
        manifest = registry.manifest("m")
        # A crash *after* the swap committed but before trash cleanup.
        (tmp_path / f".trash-m-{os.getpid()}").mkdir()
        assert ModelRegistry(tmp_path).resolve("m") == "m"
        assert ModelRegistry(tmp_path).manifest("m") == manifest

    def test_deleted_model_is_never_resurrected(self, tmp_path, trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        registry.delete("m")
        with pytest.raises(RegistryError):
            ModelRegistry(tmp_path).resolve("m")


class TestRegistryCommitJournal:
    """The journaled overwrite swap (PR 9): a SIGKILL *between* the two
    renames must no longer cost the new registration — the fsynced
    ``.commit-*.json`` written before the swap lets the next resolve()
    roll the commit forward instead of merely restoring the old copy."""

    @staticmethod
    def _simulate_kill_between_renames(tmp_path, tmp_path_factory,
                                       trained_gan):
        """Manufacture the exact on-disk state a SIGKILL leaves when it
        lands after the trash rename but before the commit rename."""
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        # A durably complete stage: a real registration of the same model,
        # renamed into a stage directory (registration writes the staged
        # manifest before the swap begins, so this is the true state).
        side = tmp_path_factory.mktemp("staging-side")
        ModelRegistry(side).register("m", trained_gan)
        stage, trash = ".stage-m-sim0", ".trash-m-424242"
        staged_manifest = json.loads(
            (side / "m" / "manifest.json").read_text())
        os.replace(side / "m", tmp_path / stage)
        os.replace(tmp_path / "m", tmp_path / trash)
        journal = tmp_path / ".commit-m-424242.json"
        journal.write_text(json.dumps(
            {"dirname": "m", "stage": stage, "trash": trash}))
        return staged_manifest, stage, trash, journal

    def test_kill_between_renames_rolls_the_commit_forward(
            self, tmp_path, tmp_path_factory, trained_gan):
        staged_manifest, stage, trash, journal = (
            self._simulate_kill_between_renames(tmp_path, tmp_path_factory,
                                                trained_gan))
        recovered = ModelRegistry(tmp_path)  # a later process
        assert recovered.resolve("m") == "m"
        # Forward, not back: the *staged* registration is now live, and
        # every intermediate artifact of the swap is consumed.
        assert recovered.manifest("m") == staged_manifest
        assert recovered.load("m").sample(2).n_rows == 2
        assert not (tmp_path / stage).exists()
        assert not (tmp_path / trash).exists()
        assert not journal.exists()

    def test_unusable_stage_rolls_back_from_trash(self, tmp_path,
                                                  trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        old_manifest = registry.manifest("m")
        # The kill landed between the renames, but the stage has no
        # manifest (it was lost or never completed): recovery must fall
        # back to the trashed previous model.
        (tmp_path / ".stage-m-sim0").mkdir()
        os.replace(tmp_path / "m", tmp_path / ".trash-m-424242")
        (tmp_path / ".commit-m-424242.json").write_text(json.dumps(
            {"dirname": "m", "stage": ".stage-m-sim0",
             "trash": ".trash-m-424242"}))
        recovered = ModelRegistry(tmp_path)
        assert recovered.resolve("m") == "m"
        assert recovered.manifest("m") == old_manifest
        assert not (tmp_path / ".commit-m-424242.json").exists()
        assert not (tmp_path / ".trash-m-424242").exists()

    def test_journal_of_a_completed_swap_only_cleans_up(self, tmp_path,
                                                        trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        registry.register("m", trained_gan, overwrite=True)
        manifest = registry.manifest("m")
        # A crash after the commit rename but before cleanup: the journal
        # and the trash copy survive, the final directory is already live.
        (tmp_path / ".trash-m-424242").mkdir()
        (tmp_path / ".commit-m-424242.json").write_text(json.dumps(
            {"dirname": "m", "stage": ".stage-m-gone",
             "trash": ".trash-m-424242"}))
        recovered = ModelRegistry(tmp_path)
        assert recovered.resolve("m") == "m"
        assert recovered.manifest("m") == manifest
        assert not (tmp_path / ".trash-m-424242").exists()
        assert not (tmp_path / ".commit-m-424242.json").exists()

    def test_no_journal_residue_after_clean_or_failed_swaps(self, tmp_path,
                                                            trained_gan):
        registry = ModelRegistry(tmp_path)
        registry.register("m", trained_gan)
        registry.register("m", trained_gan, overwrite=True)
        with FaultPlan().arm("registry.commit"):
            with pytest.raises(FaultError):
                registry.register("m", trained_gan, overwrite=True)
        residue = [p.name for p in tmp_path.iterdir()
                   if p.name.startswith(".commit-")]
        assert residue == []

"""SynthesisServer end to end: lifecycle, endpoints, determinism, drain."""

import csv
import http.client
import io
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.data.io import decoded_rows
from repro.serve import (
    ModelRegistry,
    ServerError,
    SynthesisClient,
    SynthesisServer,
    SynthesisService,
)

SEED = 11


@pytest.fixture()
def server(populated_registry):
    with SynthesisServer(populated_registry, port=0, seed=SEED,
                         stream_threshold_rows=64, stream_chunk_rows=16,
                         max_request_rows=1000) as running:
        yield running


@pytest.fixture()
def client(server):
    with SynthesisClient(port=server.port) as connected:
        yield connected


def _direct_service(populated_registry):
    """The in-process reference the server's responses must match."""
    return SynthesisService(populated_registry.load("tiny"), seed=SEED)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

    def test_models_listing(self, client):
        models = client.models()
        assert [entry["name"] for entry in models] == ["tiny"]
        assert models[0]["resident"] is False
        client.sample("tiny", 1)
        assert client.models()[0]["resident"] is True

    def test_manifest(self, client, populated_registry):
        assert client.manifest("tiny") == populated_registry.manifest("tiny")

    def test_metrics_after_requests(self, client):
        client.sample("tiny", 3)
        client.sample("tiny", 4)
        metrics = client.metrics()
        assert metrics["draining"] is False
        assert metrics["responses"]["200"] >= 2
        model = metrics["models"]["tiny"]
        assert model["stats"]["rows_served"] == 7
        assert model["stream_position"] == 7
        assert model["latency"]["count"] == 2
        assert model["latency"]["p99_ms"] > 0


class TestMalformedRequests:
    def test_unknown_model_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.sample("missing", 5)
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/healthz", payload={})
        assert excinfo.value.status == 405

    def test_bad_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("POST", "/models/tiny/sample", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "not valid JSON" in body["error"]

    @pytest.mark.parametrize("payload", [{}, {"n": 0}, {"n": -3},
                                         {"n": "ten"}, {"n": True}])
    def test_bad_n_is_400(self, client, payload):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/models/tiny/sample", payload=payload)
        assert excinfo.value.status == 400

    def test_bad_format_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/models/tiny/sample",
                            payload={"n": 1, "format": "parquet"})
        assert excinfo.value.status == 400

    def test_oversized_request_is_413(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.sample("tiny", 1001)
        assert excinfo.value.status == 413


class TestResponses:
    def test_json_response_bytes_match_direct_service(self, server, client,
                                                      populated_registry):
        """Byte-level check: the response body is exactly the JSON of a
        direct SynthesisService call on the same seeded stream."""
        headers, raw = client._request(
            "POST", "/models/tiny/sample", payload={"n": 9, "format": "json"}
        )
        direct = _direct_service(populated_registry)
        expected = {
            "model": "tiny",
            "n": 9,
            "offset": 0,
            "columns": list(direct.schema.names),
            "rows": decoded_rows(direct.sample(9)),
        }
        assert raw == (json.dumps(expected, separators=(",", ":"))
                       + "\n").encode()
        assert headers["X-Stream-Offset"] == "0"
        assert headers["X-Row-Count"] == "9"

    def test_csv_response_bytes_match_direct_service(self, client,
                                                     populated_registry):
        text = client.sample_csv("tiny", 7)
        direct = _direct_service(populated_registry)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(direct.schema.names)
        writer.writerows(decoded_rows(direct.sample(7)))
        assert text == buffer.getvalue()

    def test_accept_header_selects_csv(self, client):
        _, raw = client._request("POST", "/models/tiny/sample",
                                 payload={"n": 2}, accept="text/csv")
        assert raw.decode().splitlines()[0].startswith(
            client.manifest("tiny")["schema"]["columns"][0]["name"]
        )

    def test_consecutive_requests_continue_the_stream(self, client,
                                                      populated_registry):
        first = client.sample("tiny", 5)
        second = client.sample("tiny", 8)
        assert (first["offset"], second["offset"]) == (0, 5)
        direct = _direct_service(populated_registry).sample(13)
        stacked = np.array(first["rows"] + second["rows"])
        assert np.array_equal(stacked, np.array(decoded_rows(direct)))


class TestStreaming:
    def test_streamed_csv_equals_buffered_csv(self, populated_registry):
        """Above the threshold the same rows arrive chunked; the payload
        is identical to the buffered rendering of a direct service call."""
        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             stream_threshold_rows=16,
                             stream_chunk_rows=8) as server:
            with SynthesisClient(port=server.port) as client:
                text = client.sample_csv("tiny", 50)  # 16 < 50 -> streamed
        direct = _direct_service(populated_registry)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(direct.schema.names)
        writer.writerows(decoded_rows(direct.sample(50)))
        assert text == buffer.getvalue()

    def test_streamed_ndjson_reassembles(self, populated_registry):
        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             stream_threshold_rows=16,
                             stream_chunk_rows=8) as server:
            with SynthesisClient(port=server.port) as client:
                reply = client.sample("tiny", 40)
        assert reply["offset"] == 0
        direct = _direct_service(populated_registry)
        assert reply["columns"] == list(direct.schema.names)
        assert np.array_equal(np.array(reply["rows"]),
                              np.array(decoded_rows(direct.sample(40))))


class TestTierByteIdentity:
    """Pool workers render the response text and the front end only
    slices it: every body must equal the threaded server's, byte for
    byte."""

    #: A 4-slot ring of 64-row blocks (256 rows); 48-row stream chunks
    #: straddle block boundaries.
    GEOMETRY = dict(pool_size=128, batch_rows=64, stream_threshold_rows=100,
                    stream_chunk_rows=48)
    #: (rows, format): buffered JSON and CSV, a streamed CSV export that
    #: wraps the ring twice, streamed NDJSON, then buffered again.
    REQUESTS = [(7, "json"), (30, "csv"), (700, "csv"), (300, "json"),
                (90, "csv"), (3, "json")]

    def _bodies(self, registry, workers: int) -> list[bytes]:
        with SynthesisServer(registry, port=0, seed=SEED,
                             server_workers=workers,
                             **self.GEOMETRY) as server:
            with SynthesisClient(port=server.port) as client:
                return [client._request("POST", "/models/tiny/sample",
                                        payload={"n": n, "format": fmt})[1]
                        for n, fmt in self.REQUESTS]

    def test_pool_bodies_equal_threaded_bodies(self, populated_registry):
        threaded = self._bodies(populated_registry, 0)
        pooled = self._bodies(populated_registry, 2)
        for (n, fmt), want, got in zip(self.REQUESTS, threaded, pooled):
            assert got == want, (n, fmt)
        assert threaded[2].count(b"\r\n") == 701  # streamed, with header

    def test_sigkill_mid_stream_keeps_the_body(self, populated_registry):
        payload = json.dumps({"n": 1500, "format": "csv"})

        def export(server, kill: bool) -> bytes:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=60)
            try:
                conn.request("POST", "/models/tiny/sample", body=payload,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                head = response.read(2048)
                if kill:
                    pool = server.router.get("tiny").service
                    deadline = time.monotonic() + 30
                    while True:  # a worker holding a block in flight
                        busy = [pid for pid, held in zip(
                            pool.worker_pids, pool._assigned) if held]
                        if busy:
                            os.kill(busy[0], signal.SIGKILL)
                            break
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                body = head + response.read()
                assert response.status == 200
                return body
            finally:
                conn.close()

        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             **self.GEOMETRY) as server:
            expected = export(server, kill=False)
        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             server_workers=2, **self.GEOMETRY) as server:
            assert export(server, kill=True) == expected
            info = server.router.get("tiny").service.worker_info()
            assert info["crashes"] >= 1


class TestDeterminismUnderConcurrency:
    def test_responses_tile_one_record_stream(self, server, populated_registry):
        """The acceptance invariant: concatenating responses in admission
        order reproduces a single RecordSampler run exactly, regardless of
        client concurrency."""
        requests = [3, 5, 7, 9, 2, 8, 6, 4]
        responses = []
        responses_lock = threading.Lock()

        def fire(n):
            with SynthesisClient(port=server.port) as client:
                reply = client.sample("tiny", n)
            with responses_lock:
                responses.append(reply)

        threads = [threading.Thread(target=fire, args=(n,)) for n in requests]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = sum(requests)
        model = populated_registry.load("tiny")
        direct = model.record_sampler().sample_table(
            total, rng=np.random.default_rng(SEED)
        )
        expected = decoded_rows(direct)
        responses.sort(key=lambda reply: reply["offset"])
        position = 0
        for reply in responses:
            assert reply["offset"] == position
            assert reply["rows"] == expected[position:position + reply["n"]]
            position += reply["n"]
        assert position == total


class TestUnservableModels:
    def test_chunked_model_gets_501_not_500(self, tmp_path, adult_bundle,
                                            tiny_gan_config):
        """A chunked registration is listed (servable: false) but sampling
        it returns a clear 501, not a TypeError-shaped 500."""
        from repro import ChunkedTableGAN

        chunked = ChunkedTableGAN(
            tiny_gan_config.with_overrides(epochs=1), n_chunks=2
        )
        chunked.fit(adult_bundle.train, rng=np.random.default_rng(0))
        registry = ModelRegistry(tmp_path)
        registry.register("chunked", chunked)
        with SynthesisServer(registry, port=0, seed=SEED) as server:
            with SynthesisClient(port=server.port) as client:
                listing = client.models()
                assert listing[0]["servable"] is False
                with pytest.raises(ServerError) as excinfo:
                    client.sample("chunked", 5)
                assert excinfo.value.status == 501
                assert "repro synth" in excinfo.value.message


class TestAdmissionControl:
    def test_saturated_server_answers_429_with_retry_after(
            self, populated_registry):
        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             max_queue_depth=0) as server:
            with SynthesisClient(port=server.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.sample("tiny", 1)
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after_s > 0

    def test_client_retries_on_429(self, populated_registry):
        with SynthesisServer(populated_registry, port=0, seed=SEED,
                             max_queue_depth=0) as server:
            with SynthesisClient(port=server.port, retries=2,
                                 max_backoff_s=0.01) as client:
                with pytest.raises(ServerError):
                    client.sample("tiny", 1)
            assert server.metrics()["responses"]["429"] == 3


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_requests(self, populated_registry):
        """Requests admitted before shutdown complete; the socket closes
        only after the last in-flight response is written."""
        server = SynthesisServer(populated_registry, port=0, seed=SEED,
                                 stream_threshold_rows=16,
                                 stream_chunk_rows=1024).start()
        # A slow reader holds an in-flight streamed response open: the
        # export is far larger than the loopback socket buffers, so the
        # handler blocks mid-response until the client reads on.
        rows = 60_000
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("POST", "/models/tiny/sample",
                     body=json.dumps({"n": rows, "format": "csv"}).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        first = response.read(64)  # partial read, then pause
        assert response.status == 200 and first

        shutdown_done = threading.Event()

        def shut():
            server.shutdown()
            shutdown_done.set()

        shutter = threading.Thread(target=shut)
        shutter.start()
        # Drain blocks on the in-flight response ...
        assert not shutdown_done.wait(0.3)
        # ... until the client finishes reading it, complete and intact.
        rest = response.read()
        body = (first + rest).decode()
        assert len(body.splitlines()) == rows + 1  # header + every row
        conn.close()
        shutter.join(timeout=10)
        assert shutdown_done.is_set()
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection("127.0.0.1", server.port,
                                               timeout=0.5)
            probe.request("GET", "/healthz")
            probe.getresponse()

    def test_shutdown_is_idempotent(self, populated_registry):
        server = SynthesisServer(populated_registry, port=0, seed=SEED).start()
        with SynthesisClient(port=server.port) as client:
            client.sample("tiny", 2)
        server.shutdown()
        server.shutdown()


class TestCliWiring:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0
        assert args.no_coalesce is False
        assert args.max_queue == 64
        assert args.func.__name__ == "cmd_serve"

    def test_train_register_accepts_versioned_ref(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["train", "--register", "adult@v2"]
        )
        assert args.register == "adult@v2"

    def test_serve_quality_and_trace_rotation_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--port", "0", "--no-quality",
            "--trace-log", "/tmp/spans.jsonl",
            "--trace-log-max-mb", "8", "--trace-log-keep", "5",
        ])
        assert args.no_quality is True
        assert args.trace_log_max_mb == 8
        assert args.trace_log_keep == 5
        defaults = build_parser().parse_args(["serve", "--port", "0"])
        assert defaults.no_quality is False
        assert defaults.trace_log_max_mb is None
        assert defaults.trace_log_keep == 3

    def test_quality_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["quality", "tiny@v1", "--url", "http://127.0.0.1:8000"]
        )
        assert args.ref == "tiny@v1"
        assert args.url == "http://127.0.0.1:8000"
        assert args.func.__name__ == "cmd_quality"

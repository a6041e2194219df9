"""Workload ``serve-bulk``: ``python -m repro serve --server-workers 2``
driven over HTTP by one load-generator process.

One connection is a closed-loop bulk consumer sending back-to-back
streamed CSV requests above the stream threshold; the other carries
open-loop small JSON requests (1-256 rows, seeded), whose latency behind
bulk generation shows head-of-line cost.

Each run boots the server ``SETUP_REPEATS`` times (set-up = spawn to the
first 2xx); the last boot is measured through phases of small requests: a
light and a busy fixed rate (open loop), then a binary search over a
fixed rate ladder for the highest rate that keeps the tail under
``LIMIT_MS`` with no growing backlog.  Every open-loop latency is timed
from the moment the request was due, so a stall also charges the
requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import pb_common
import pb_stats

SETUP_REPEATS = 7
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 15.0
DRAIN_TIMEOUT_S = 15.0
#: A light or busy request still unsent this long after its phase's last
#: due time counts as failed: the server fell so far behind that it is
#: hung, not slow.  Until then a backlog only adds latency.
BACKLOG_LIMIT_S = REQUEST_TIMEOUT_S
#: Bulk requests stream as chunked CSV: above the server's default
#: 10 000-row stream threshold.
BULK_ROWS = 16384
#: Rows per streamed chunk: the server's default ``--stream-rows``.
STREAM_CHUNK_ROWS = 2048
#: The load generator is behind its own schedule when the p99 of its
#: send lateness (send time minus the later of due time and the moment a
#: connection was free) passes this; such a run is invalid.
LATENESS_LIMIT_MS = 25.0
#: Bodies compared row for row against the regenerated stream.
CHECK_BODIES = 4
MIN_REGEN_ROWS = 16

SERVER_WORKERS = 2
#: Light and busy small-request rates (req/s).  A stream holds the
#: batcher until it completes, so a small request waits out the bulk
#: request in flight (about a second here): both rates stay well below
#: one per bulk period, and the ladder's tail limit above it.
LIGHT_RPS, BUSY_RPS = 0.25, 0.5
LIMIT_MS = 2500.0
#: The ladder's range (req/s), seconds per ladder step, and the shares of
#: the window given to the light and busy phases (the ladder gets the
#: rest).
LADDER = (0.25, 8.0)
PROBE_S = 3.0
LIGHT_SHARE, BUSY_SHARE = 0.3, 0.35
#: Adjacent ladder rates differ by this factor (at most 10 % apart).
LADDER_STEP = 1.05
#: Percentile of the bounded tail metric: a 30 s window holds ~210
#: chunk waits, and p90 keeps ten beyond it down to 100.
TAIL_P = 90.0
#: Seconds of back-to-back small requests before the window, so the
#: first blocks and first-call allocations are not timed.
WARMUP_S = 4.0
#: The server closes a keep-alive connection after 5 s idle; a request
#: sent as it does so is lost (the server closes without answering).  A
#: connection idle this long is replaced before its next request.
IDLE_REUSE_S = 4.0


class Exchange:
    """One request and what came back."""

    __slots__ = ("rows", "fmt", "due", "free", "sent", "ttfb", "done",
                 "status", "offset", "row_count", "body_rows", "body",
                 "error", "keep", "chunk_gaps")

    def __init__(self, rows: int, fmt: str, due: float, keep: bool = False):
        self.rows, self.fmt, self.due, self.keep = rows, fmt, due, keep
        self.free = self.sent = self.ttfb = self.done = None
        self.status = self.offset = self.row_count = self.body_rows = None
        self.body = None
        self.error = None
        self.chunk_gaps: list[float] = []

    @property
    def ok(self) -> bool:
        return (self.status is not None and 200 <= self.status < 300
                and self.error is None)


class Connection:
    """A keep-alive HTTP connection issuing sample requests."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=REQUEST_TIMEOUT_S)
        self.idle_since = time.perf_counter()

    def exchange(self, ex: Exchange) -> None:
        payload = json.dumps({"n": ex.rows, "format": ex.fmt})
        if time.perf_counter() - self.idle_since > IDLE_REUSE_S:
            self.reset()
        for attempt in (0, 1):
            ex.sent = time.perf_counter()
            try:
                self.conn.request("POST", f"/models/{pb_common.MODEL_NAME}/sample",
                                  body=payload,
                                  headers={"Content-Type": "application/json"})
            except (BrokenPipeError, ConnectionResetError) as exc:
                # The server closed an idle keep-alive socket before this
                # request went out: nothing was sent, so resend once.
                self.reset()
                if attempt:
                    ex.error = f"send failed: {exc}"
                    return
                continue
            break
        try:
            response = self.conn.getresponse()
            ex.ttfb = time.perf_counter()
            if ex.fmt == "csv":
                body = self._read_streamed(response, ex)
            else:
                body = response.read()
            ex.done = time.perf_counter()
        except (OSError, http.client.HTTPException) as exc:
            ex.done = self.idle_since = time.perf_counter()
            ex.error = f"{type(exc).__name__}: {exc}"
            self.reset()
            return
        self.idle_since = ex.done
        ex.status = response.status
        ex.offset = response.getheader("X-Stream-Offset")
        ex.row_count = response.getheader("X-Row-Count")
        if ex.ok:
            if ex.fmt == "json":
                ex.body_rows = body.count(b"],[") + 1 if b'"rows":[[' in body else 0
            else:
                ex.body_rows = body.count(b"\r\n") - 1
        if ex.keep:
            ex.body = body
        if response.will_close:
            self.reset()

    @staticmethod
    def _read_streamed(response, ex: Exchange) -> bytes:
        """Read a streamed CSV body, timing every ``STREAM_CHUNK_ROWS``
        rows as they arrive (the gaps a streaming reader waits through)."""
        parts, lines = [], 0
        boundary = STREAM_CHUNK_ROWS + 1  # the header line comes first
        last = ex.ttfb
        while True:
            data = response.read1(1 << 16)
            if not data:
                return b"".join(parts)
            parts.append(data)
            lines += data.count(b"\n")
            if lines >= boundary:
                now = time.perf_counter()
                while lines >= boundary:
                    boundary += STREAM_CHUNK_ROWS
                ex.chunk_gaps.append(now - last)
                last = now

    def reset(self) -> None:
        self.conn.close()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=REQUEST_TIMEOUT_S)

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path, headers={"Accept": "application/json"})
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


# ----------------------------------------------------------------------
# Server lifecycle.
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process: booted, timed to its first 2xx, killed."""

    def __init__(self, registry, workers: int, seed: int, spans_path=None):
        argv = ["serve", "--registry", str(registry), "--port", "0",
                "--seed", str(seed), "--server-workers", str(workers)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(pb_common.HERE / "pb_launcher.py"),
                   str(spans_path), *argv]
        self.started = time.perf_counter()
        self.proc = pb_common.spawn(cmd, stdout=subprocess.PIPE)
        self.pids = {self.proc.pid}
        self.port = None
        self.first_ok = None  # Exchange of the readiness request

    def wait_ready(self) -> float:
        """Seconds from spawn to the first 2xx sample response."""
        deadline = self.started + BOOT_TIMEOUT_S
        line = pb_common.read_line_matching(
            self.proc, lambda l: "http://" in l, deadline)
        match = re.search(r":(\d+)\s*$", line or "")
        if match is None:
            raise RuntimeError("server never printed its address")
        self.port = int(match.group(1))
        conn = Connection(self.port)
        try:
            while time.perf_counter() < deadline:
                ex = Exchange(1, "json", time.perf_counter())
                conn.exchange(ex)
                if ex.ok:
                    self.first_ok = ex
                    return ex.done - self.started
                time.sleep(0.05)
        finally:
            conn.close()
        raise RuntimeError("server never answered 2xx")

    def peak_rss_mb(self) -> float:
        self.pids.update(pb_common.process_tree(self.proc.pid))
        return pb_common.tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> list[str]:
        """Drain (bounded), reap the tree; return problems found."""
        self.pids.update(pb_common.process_tree(self.proc.pid))
        problems = []
        if not pb_common.kill_tree(self.proc, grace_s=DRAIN_TIMEOUT_S):
            problems.append(f"server did not drain within {DRAIN_TIMEOUT_S:g}s")
        self.proc.stdout.close()
        leaked = pb_common.shm_segments(self.pids)
        if leaked:
            problems.append(f"leaked /dev/shm segments: {sorted(leaked)}")
            for name in leaked:
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except OSError:
                    pass
        return problems


# ----------------------------------------------------------------------
# Load generation.
# ----------------------------------------------------------------------
def open_loop(conn, schedule, base: float, keep=(),
              grace_s: float = 1.0) -> list[Exchange]:
    """Send ``schedule`` [(due offset s, rows)] from ``base`` over ``conn``.

    The connection takes the next due request as soon as it is free, so a
    backlog shows as latency (timed from the due time).  Requests not yet
    sent ``grace_s`` after the schedule's end are left unsent (``sent is
    None``).  The sender runs on a thread joined with a deadline, so a
    hung server cannot hang the run.
    """
    exchanges = [Exchange(rows, "json", base + due, keep=i in keep)
                 for i, (due, rows) in enumerate(schedule)]
    if not exchanges:
        return exchanges
    cutoff = exchanges[-1].due + grace_s

    def drive():
        for ex in exchanges:
            ex.free = time.perf_counter()
            if ex.free > cutoff:
                return
            if ex.due > ex.free:
                time.sleep(ex.due - ex.free)
            conn.exchange(ex)

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    thread.join(timeout=max(0.0, cutoff + 2 * REQUEST_TIMEOUT_S + 5
                            - time.perf_counter()))
    if thread.is_alive():
        raise TimeoutError("load generator thread did not finish")
    return exchanges


def warm_up(conn: Connection, seed: int, duration: float) -> list[Exchange]:
    """Seeded small requests back to back for ``duration`` seconds."""
    sizes = random.Random(f"{seed}:warmup")
    end = time.perf_counter() + duration
    exchanges = []
    while time.perf_counter() < end:
        ex = Exchange(sizes.randint(1, 256), "json", time.perf_counter())
        conn.exchange(ex)
        exchanges.append(ex)
    return exchanges


class BulkConsumer(threading.Thread):
    """Closed loop: back-to-back streamed CSV requests until stopped."""

    def __init__(self, port: int, seed: int):
        super().__init__(daemon=True)
        self.conn = Connection(port)
        self.stop_event = threading.Event()
        self.exchanges: list[Exchange] = []
        self.keep_index = random.Random(seed).randrange(4)

    def run(self):
        while not self.stop_event.is_set():
            keep = len(self.exchanges) == self.keep_index
            ex = Exchange(BULK_ROWS, "csv", time.perf_counter(), keep=keep)
            self.conn.exchange(ex)
            self.exchanges.append(ex)
        self.conn.close()


def _lateness_ms(exchanges) -> list[float]:
    return [(ex.sent - max(ex.due, ex.free)) * 1e3
            for ex in exchanges if ex.sent is not None]


def _latency_s(exchanges) -> list[float]:
    """Due-to-done seconds of the requests that succeeded (failures are
    counted in ``failed`` and fail any ladder step they occur in)."""
    return [ex.done - ex.due for ex in exchanges if ex.ok]


def _probe_passes(exchanges, limit_ms: float, window_s: float) -> bool:
    if any(ex.sent is None or not ex.ok for ex in exchanges):
        return False
    latencies = _latency_s(exchanges)
    if not latencies:
        return True  # no arrivals fell in this step
    tail = pb_stats.summarize(latencies)["tail"]
    worst = max(latencies) if tail is None else tail  # too few for a tail
    if worst * 1e3 > limit_ms:
        return False
    return not pb_stats.backlog_grew(
        [(ex.due, ex.done) for ex in exchanges], window_s)


def _ladder_search(conn, seed, budget_s: float):
    """Binary search over the fixed ladder for the highest passing rate."""
    ladder = pb_stats.rate_ladder(*LADDER, step=LADDER_STEP)
    lo, hi = -1, len(ladder)  # ladder[lo] passed, ladder[hi] failed
    probes, exchanges = [], []
    end = time.perf_counter() + budget_s
    while hi - lo > 1 and time.perf_counter() + PROBE_S < end:
        mid = (lo + hi) // 2
        schedule = pb_stats.poisson_schedule(seed, ladder[mid], PROBE_S,
                                             stream=f"ladder{mid}")
        result = open_loop(conn, schedule, time.perf_counter() + 0.05)
        passed = _probe_passes(result, LIMIT_MS, PROBE_S)
        probes.append((ladder[mid], passed))
        exchanges.extend(result)
        if passed:
            lo = mid
        else:
            hi = mid
    max_rps = ladder[lo] if lo >= 0 else 0.0
    return max_rps, probes, exchanges


# ----------------------------------------------------------------------
# Output checks.
# ----------------------------------------------------------------------
def _expected_rows(model, seed: int, offset: int, rows: int):
    """Rows [offset, offset + rows) of the server's record stream.

    The service draws each row's latent vector from one seeded generator
    in stream order, ``latent_dim`` float64 uniforms per row, one 64-bit
    draw each; advancing the bit generator skips the rows before
    ``offset`` without generating them.  At least ``MIN_REGEN_ROWS`` rows
    go through the generator together, as in the server's blocks: a
    single-row forward takes BLAS's matrix-vector path, whose float32
    results differ in the last bits from the matrix-matrix path.
    """
    from repro.data.table import Table

    sampler = model.record_sampler()
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(offset * sampler.latent_dim)
    z = rng.uniform(-1.0, 1.0, size=(max(rows, MIN_REGEN_ROWS),
                                     sampler.latent_dim))
    records = sampler.records_from_latents(z)[:rows]
    return Table(sampler.codec.decode(records).values, sampler.codec.schema_)


def _check_bodies(registry, seed, kept, out) -> None:
    import csv
    import io

    from repro.serve import ModelRegistry

    model = ModelRegistry(registry).load(pb_common.MODEL_NAME)
    for ex in kept:
        out.attempted += 1
        table = _expected_rows(model, seed, int(ex.offset), ex.rows)
        rows = pb_common.render_rows(table.values, table.schema)
        if ex.fmt == "json":
            got = json.loads(ex.body)["rows"]
            want = json.loads(json.dumps(rows))
        else:
            got = list(csv.reader(io.StringIO(ex.body.decode("utf-8"))))
            want = pb_common.csv_cells([list(table.schema.names), *rows])
        if got != want:
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
            out.fail(f"{ex.fmt} body at offset {ex.offset} ({ex.rows} rows) "
                     f"differs from the regenerated stream in {len(bad)} "
                     f"row(s), first at +{bad[0] if bad else len(want)}")


def _check_exchanges(exchanges, out) -> None:
    """Status, row counts and stream tiling of every sent request."""
    slices = []
    for ex in exchanges:
        if ex.sent is None:
            continue
        if not ex.ok:
            out.fail(f"request for {ex.rows} rows: "
                     f"{ex.error or f'HTTP {ex.status}'}")
            continue
        if (ex.row_count is None or int(ex.row_count) != ex.rows
                or ex.body_rows != ex.rows):
            out.fail(f"asked {ex.rows} rows, X-Row-Count {ex.row_count}, "
                     f"body {ex.body_rows}")
            continue
        slices.append((int(ex.offset), ex.rows))
    for problem in pb_stats.tiling_errors(slices):
        out.fail(f"X-Stream-Offset slices do not tile the stream: {problem}")


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, tracer, workdir, out) -> None:
    pb_common.use_program()
    registry = workdir / "registry"
    pb_common.prepare_model(registry)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        probe = Server(registry, SERVER_WORKERS, seed)
        try:
            setups.append(probe.wait_ready())
        finally:
            for problem in probe.stop():
                out.fail(problem)

    spans_path = workdir / "server-spans.json" if tracer is not None else None
    server = Server(registry, SERVER_WORKERS, seed, spans_path)
    conn = None
    bulk = None
    try:
        setups.append(server.wait_ready())
        conn = Connection(server.port)
        picker = random.Random(seed)
        light_plan = pb_stats.poisson_schedule(
            seed, LIGHT_RPS, seconds * LIGHT_SHARE, stream="light")
        busy_plan = pb_stats.poisson_schedule(
            seed, BUSY_RPS, seconds * BUSY_SHARE, stream="busy")
        keep_light = set(picker.sample(range(len(light_plan)),
                                       min(len(light_plan), CHECK_BODIES // 2)))
        keep_busy = set(picker.sample(range(len(busy_plan)),
                                      min(len(busy_plan), CHECK_BODIES // 2)))

        warmup = warm_up(conn, seed, WARMUP_S)

        # --- timed window -------------------------------------------------
        window_start = time.perf_counter()
        bulk = BulkConsumer(server.port, seed)
        bulk.start()
        light = open_loop(conn, light_plan, time.perf_counter() + 0.05,
                          keep_light, BACKLOG_LIMIT_S)
        busy = open_loop(conn, busy_plan, time.perf_counter() + 0.05,
                         keep_busy, BACKLOG_LIMIT_S)
        remaining = seconds - (time.perf_counter() - window_start)
        max_rps, probes, ladder = _ladder_search(conn, seed, remaining)
        bulk.stop_event.set()
        bulk.join(timeout=2 * REQUEST_TIMEOUT_S + 5)
        if bulk.is_alive():
            raise TimeoutError("bulk consumer did not finish")
        window_s = time.perf_counter() - window_start
        # -------------------------------------------------------------------
        peak_rss = server.peak_rss_mb()
        scraper = Connection(server.port)
        try:
            metrics = scraper.get_json("/metrics")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            out.fail(f"GET /metrics failed: {exc}")
            metrics = {}
        finally:
            scraper.close()
    finally:
        if conn is not None:
            conn.close()
        for problem in server.stop():
            out.fail(problem)

    small = light + busy + ladder
    late = _lateness_ms(small)
    late_p99 = pb_stats.percentile(late, 99) if late else 0.0
    if late_p99 > LATENESS_LIMIT_MS:
        raise pb_common.InvalidRun(
            f"load generator p99 lateness {late_p99:.1f} ms "
            f"> {LATENESS_LIMIT_MS:g} ms")

    # --- output checks, outside the window ------------------------------
    everything = [server.first_ok] + warmup + small + bulk.exchanges
    out.attempted += sum(1 for ex in everything if ex.sent is not None)
    for phase, exchanges in (("light", light), ("busy", busy)):
        unsent = sum(1 for ex in exchanges if ex.sent is None)
        if unsent:
            out.attempted += unsent
            out.fail(f"{unsent} {phase} requests never sent: the server "
                     f"was still busy {BACKLOG_LIMIT_S:g} s after the "
                     "schedule ended", unsent)
    _check_exchanges(everything, out)
    kept = [ex for ex in everything if ex.keep and ex.ok]
    _check_bodies(registry, seed, kept, out)

    # --- figures ------------------------------------------------------------
    done = [ex for ex in bulk.exchanges if ex.ok]
    rows_per_s = (sum(ex.rows for ex in done)
                  / sum(ex.done - ex.sent for ex in done)) if done else 0.0
    # The bulk reader's user-visible latency: the wait for each streamed
    # chunk of rows.
    gaps = [g for ex in done for g in ex.chunk_gaps]
    headline = pb_stats.summarize(gaps, TAIL_P)
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "rows_per_s": rows_per_s,
        # With every request failed (a hung server) there is no latency;
        # the run has failed already, and its figures read 0.
        "p50_ms": (headline["p50"] or 0.0) * 1e3,
        "tail_ms": (pb_stats.tail_or_max(headline) or 0.0) * 1e3,
    })
    out.report("setup_s", statistics.median(setups), "s",
               f"(median of {len(setups)} boots, spawn to first 2xx)")
    out.report_timing(f"latency_ms.light@{LIGHT_RPS:g}rps", _latency_s(light))
    out.report_timing(f"latency_ms.busy@{BUSY_RPS:g}rps", _latency_s(busy))
    out.report("max_rps", max_rps, "req/s",
               f"(tail < {LIMIT_MS:g} ms; probes "
               + " ".join(f"{r:g}{'+' if ok else '-'}" for r, ok in probes) + ")")
    out.report("bulk_rows_per_s", rows_per_s, "rows/s",
               f"({len(bulk.exchanges)} streamed requests of {BULK_ROWS} rows)")
    out.report_timing(f"bulk_chunk_gap_ms.{STREAM_CHUNK_ROWS}rows", gaps)
    out.report("fidelity_cdf_area", _fidelity(registry, seed, everything),
               "area", "(first rows of the served stream vs the model's "
               "training table)")
    out.report("lateness_ms.p99", late_p99, "ms",
               f"(load generator, n={len(late)})")
    out.report("window_s", window_s, "s")
    out.report("peak_rss_mb", peak_rss, "MB", "(server process tree)")

    if tracer is not None:
        _server_layers(metrics, spans_path, tracer, out)
        sent = [ex for ex in small if ex.ok]
        ttfb = [(ex.ttfb - ex.sent) * 1e3 for ex in sent]
        transfer = [(ex.done - ex.ttfb) * 1e3 for ex in sent]
        out.layers["client.ttfb_ms.p50"] = pb_stats.percentile(ttfb, 50)
        out.layers["client.ttfb_ms.p99"] = pb_stats.percentile(ttfb, 99)
        out.layers["client.transfer_ms.p50"] = pb_stats.percentile(transfer, 50)
        out.layers["client.lateness_ms.p99"] = late_p99
        out.layers["trace.rows_per_s"] = rows_per_s
        out.layers["trace.p50_ms"] = out.metrics["p50_ms"]
        out.layers["trace.tail_ms"] = out.metrics["tail_ms"]


def _fidelity(registry, seed, exchanges) -> float:
    """CDF-area distance between the served stream prefix and the table
    the served model was trained on (deterministic for a seed)."""
    from repro.data.datasets import load_dataset
    from repro.evaluation.statistical import mean_area_distance
    from repro.serve import ModelRegistry

    served = sum(ex.rows for ex in exchanges if ex.ok)
    model = ModelRegistry(registry).load(pb_common.MODEL_NAME)
    rows = min(served, 8192)
    reference = load_dataset(pb_common.DATASET, rows=pb_common.SERVE_MODEL_ROWS,
                             seed=pb_common.SERVE_MODEL_SEED).train
    return mean_area_distance(reference, _expected_rows(model, seed, 0, rows))


def _server_layers(metrics: dict, spans_path, tracer, out) -> None:
    model = metrics.get("models", {}).get(pb_common.MODEL_NAME, {})
    stats = model.get("stats", {})
    stages = model.get("stages", {})
    responses = metrics.get("responses", {})
    layers = out.layers
    layers["server.pool_hit_frac"] = (stats.get("pool_hits", 0)
                                      / max(stats.get("requests", 0), 1))
    layers["server.rows_per_generator_call"] = (
        stats.get("rows_generated", 0) / max(stats.get("generator_calls", 0), 1))
    layers["server.generate_s"] = stages.get("generate", {}).get("total_s", 0.0)
    layers["server.decode_s"] = stages.get("decode", {}).get("total_s", 0.0)
    layers["server.queue_wait_ms.p50"] = model.get("queue_wait", {}).get("p50_ms", 0.0)
    layers["server.queue_wait_ms.p99"] = model.get("queue_wait", {}).get("p99_ms", 0.0)
    layers["server.batch_ticks"] = model.get("batch_ticks", 0)
    layers["server.render_ms.p50"] = metrics.get("render", {}).get("p50_ms", 0.0)
    layers["server.status.4xx"] = sum(n for code, n in responses.items()
                                      if code.startswith("4"))
    layers["server.status.5xx"] = sum(n for code, n in responses.items()
                                      if code.startswith("5"))
    layers["procpool.worker_restarts"] = model.get("workers", {}).get("restarts", 0)
    try:
        with open(spans_path) as handle:
            spans = json.load(handle)
    except (OSError, ValueError):
        out.fail("traced server wrote no span file")
        return
    for name, entry in spans.items():
        tracer.add(name, entry["s"], entry["calls"])

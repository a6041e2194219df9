"""Cross-request batch coalescing: one generator pass for N waiting clients.

The HTTP front end handles each connection on its own thread, but small
synthesis requests must not each pay a generator forward.  The batcher
closes that gap: handler threads **submit** requests into a bounded FIFO
queue and block; a single worker thread owns the model's
:class:`~repro.serve.service.SynthesisService` and repeatedly drains
*everything* queued into one :meth:`~repro.serve.service.SynthesisService.
take_block` call — one replenishment tick, one coalesced generator
forward, one block decode — then hands each handler its slice.  N clients
asking for 100 rows each cost one 100·N-row forward instead of N small
ones.

Determinism is preserved because pop order is serve order: the worker is
the only consumer, and ``take_block`` claims contiguous stream rows — so
every response is a contiguous slice of the model's single seeded record
stream, tagged with its offset.  Header-less traffic pops in plain FIFO
admission order; requests carrying an ``X-Priority`` or ``X-Client-Id``
header flow through the :class:`_AdmissionQueue`'s priority bands and
per-client fair-share rotation (higher priority first; within a band,
one request per client per turn; FIFO per client), and per-client quotas
(``client_quota``) bound how much of the queue any one tenant can hold —
:class:`QuotaExceeded` maps to the same HTTP 429 as queue saturation.

Three request shapes flow through the same queue:

* **coalesced** (default) — consecutive queued requests drain as one tick;
* **per-request** (``coalesce=False``) — one tick per request, retained as
  the measurable baseline the benchmark's ``serving`` section compares
  against;
* **streamed** — a large export (:meth:`CoalescingBatcher.submit_stream`)
  drains alone, chunk by chunk, through a small bounded hand-off queue:
  the response needs bounded memory, but its rows are still one
  contiguous, atomically-reserved stream slice because the worker serves
  nothing else until the stream completes.

Admission control is the queue bound: when ``max_queue_depth`` requests
are already waiting or in flight, :meth:`~CoalescingBatcher.submit`
raises :class:`QueueSaturated` and the HTTP layer turns that into
``429 Retry-After`` instead of letting latency grow without bound.

Supervision
-----------
The worker thread runs under a supervisor loop: any exception escaping a
drain tick (including faults armed at the ``batcher.tick`` injection
seam) is treated as a **worker crash**, not a process failure.

* The crashed tick's streams fail immediately — some chunks may already
  be with the consumer, so a retry could never be transparent; the HTTP
  layer turns that into a truncated chunked body.
* The crashed tick's small slices are requeued **at the front** once for
  a transparent retry: the failed tick claimed no stream rows, so the
  retry returns bit-identical values at the same offsets.  A request
  whose tick crashes ``poison_strikes`` times is quarantined — failed
  with :class:`WorkerCrashed` (an HTTP 500) instead of retry-looping.
* The worker restarts after an exponential backoff
  (``restart_backoff_s`` doubling up to ``max_backoff_s``).  After
  ``max_restarts`` *consecutive* crashes (a clean tick resets the count)
  the batcher declares itself **dead**: everything queued fails with
  :class:`BatcherDead` and the router evicts/reloads the model on the
  next request.
* :attr:`~CoalescingBatcher.health` summarises the state machine:
  ``ok`` → ``degraded`` (crashed since the last clean tick) → ``dead``.

Deadlines: ``submit``/``submit_stream`` accept an absolute
``time.monotonic()`` deadline.  Expired work is dropped *before* it
reaches the generator — at admission, when the worker pops it, and (for
streams) before each chunk — raising :class:`DeadlineExceeded` (HTTP
504) instead of spending a generator forward on an answer nobody is
waiting for.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque

from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.utils.faults import fault_point


class BatcherClosed(RuntimeError):
    """The batcher is shut down and no longer accepts requests."""


class BatcherDead(BatcherClosed):
    """The worker exhausted its restart budget; the model needs a reload.

    Subclasses :class:`BatcherClosed` so existing shutdown handling
    applies, but the router additionally treats a dead batcher as
    evict-and-reload rather than drain-and-retry.
    """


class WorkerCrashed(RuntimeError):
    """The worker crashed while serving this request (HTTP 500)."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before it was served (HTTP 504)."""


class QueueSaturated(RuntimeError):
    """Admission control: the request queue is at ``max_queue_depth``.

    ``retry_after_s`` is the backpressure hint surfaced to clients as the
    HTTP ``Retry-After`` header.
    """

    def __init__(self, depth: int, retry_after_s: float = 1.0):
        super().__init__(
            f"request queue is saturated ({depth} requests queued or in flight)"
        )
        self.depth = depth
        self.retry_after_s = retry_after_s


class QuotaExceeded(QueueSaturated):
    """Per-client admission quota: one tenant may not own the queue.

    Subclasses :class:`QueueSaturated` so the HTTP layer's existing
    ``429 Retry-After`` mapping applies unchanged.
    """

    def __init__(self, client: str, load: int, quota: int,
                 retry_after_s: float = 1.0):
        RuntimeError.__init__(
            self,
            f"client {client!r} is over its admission quota "
            f"({load} of {quota} requests queued or in flight)",
        )
        self.depth = load
        self.retry_after_s = retry_after_s
        self.client = client
        self.quota = quota


class _PendingSlice:
    """One queued small request; the handler thread blocks on ``event``.

    ``strikes`` counts worker crashes while this request was in flight;
    at ``poison_strikes`` the request is quarantined instead of retried.
    """

    __slots__ = ("n", "event", "values", "offset", "error", "deadline",
                 "strikes", "ctx", "admitted_at", "priority", "client", "fmt")

    def __init__(self, n: int, deadline: float | None = None,
                 priority: int = 0, client: str | None = None,
                 fmt: str | None = None):
        self.n = n
        self.fmt = fmt
        self.event = threading.Event()
        self.values = None
        self.offset: int | None = None
        self.error: BaseException | None = None
        self.deadline = deadline
        self.priority = priority
        self.client = client
        self.strikes = 0
        # Captured in the handler thread: the trace context the worker
        # re-attaches so its spans parent to this request's handler span,
        # and the admission timestamp behind the queue-wait histogram.
        self.ctx = trace.current()
        self.admitted_at = time.perf_counter()


class _PendingStream:
    """One queued large export, handed over chunk by chunk.

    The chunk queue is small and bounded: the worker generates at most
    ``maxsize`` chunks ahead of the consumer, so a slow client throttles
    generation instead of buffering the whole export.  ``cancel()`` (e.g.
    on client disconnect) makes the worker abandon the remaining rows.
    """

    __slots__ = ("n", "chunk_rows", "chunks", "cancelled", "deadline",
                 "ctx", "admitted_at", "priority", "client", "fmt")

    def __init__(self, n: int, chunk_rows: int, maxsize: int = 2,
                 deadline: float | None = None, priority: int = 0,
                 client: str | None = None, fmt: str | None = None):
        self.n = n
        self.fmt = fmt
        self.chunk_rows = chunk_rows
        self.chunks: queue.Queue = queue.Queue(maxsize=maxsize)
        self.cancelled = threading.Event()
        self.deadline = deadline
        self.priority = priority
        self.client = client
        self.ctx = trace.current()
        self.admitted_at = time.perf_counter()

    def cancel(self) -> None:
        """Tell the worker to stop generating rows for this stream."""
        self.cancelled.set()
        # Drain anything buffered so a blocked worker put() wakes up.
        try:
            while True:
                self.chunks.get_nowait()
        except queue.Empty:
            pass

    def __iter__(self):
        """Yield ``(values, offset)`` chunks; re-raises worker errors."""
        while True:
            kind, payload, offset = self.chunks.get()
            if kind == "chunk":
                yield payload, offset
            elif kind == "end":
                return
            else:  # "error"
                raise payload


class _AdmissionQueue:
    """Priority bands + per-client fair share, with a bit-exact retry lane.

    Pop order:

    1. the **retry lane** — crash-retried requests go back out first, in
       their original pop order, so their stream claims stay
       bit-identical across the retry;
    2. the **highest priority band** present;
    3. within a band, **round-robin across clients** (one request per
       client per turn, FIFO per client), so no tenant starves another.

    Requests without a client id share one anonymous bucket, which makes
    header-less traffic behave exactly like the plain FIFO this class
    replaced.
    """

    __slots__ = ("_retry", "_bands", "_len")

    def __init__(self):
        self._retry: deque = deque()
        # priority → (client → deque of pendings), clients in rotation
        # order.  dict preserves insertion order; rotation moves a just-
        # served client to the back.
        self._bands: dict[int, dict] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def append(self, pending) -> None:
        band = self._bands.setdefault(pending.priority, {})
        lane = band.get(pending.client)
        if lane is None:
            lane = band[pending.client] = deque()
        lane.append(pending)
        self._len += 1

    def requeue_front(self, pendings) -> None:
        """Put crash-retried requests at the very front, order preserved."""
        self._retry.extendleft(reversed(pendings))
        self._len += len(pendings)

    def _select(self):
        prio = max(self._bands)
        band = self._bands[prio]
        client = next(iter(band))
        return prio, band, client

    def peek(self):
        """The request the next :meth:`popleft` will return (no rotation)."""
        if self._retry:
            return self._retry[0]
        if not self._bands:
            return None
        _, band, client = self._select()
        return band[client][0]

    def popleft(self):
        if self._retry:
            self._len -= 1
            return self._retry.popleft()
        prio, band, client = self._select()
        lane = band[client]
        pending = lane.popleft()
        self._len -= 1
        if lane:
            # Fair share: this client goes to the back of the rotation.
            del band[client]
            band[client] = lane
        else:
            del band[client]
            if not band:
                del self._bands[prio]
        return pending

    def drain(self):
        """Pop everything (dead/close drain), retry lane first."""
        while self._len:
            yield self.popleft()

    def queued_for(self, client) -> int:
        """Requests ``client`` currently has queued (quota accounting)."""
        count = sum(1 for p in self._retry if p.client == client)
        for band in self._bands.values():
            lane = band.get(client)
            if lane is not None:
                count += len(lane)
        return count


class CoalescingBatcher:
    """Single-consumer request queue in front of one ``SynthesisService``.

    Parameters
    ----------
    service:
        The (thread-safe) service this batcher owns.  Nothing else should
        sample from it while the batcher lives, or stream slices stop
        being contiguous per response.
    max_queue_depth:
        Admission bound: maximum requests queued or in flight before
        :meth:`submit` raises :class:`QueueSaturated`.
    coalesce:
        ``True`` drains every queued request per tick (the point of this
        class); ``False`` serves one request per tick — the per-request
        baseline path the serving benchmark quantifies coalescing against.
    name:
        Worker thread name suffix (diagnostics only).
    max_restarts:
        Consecutive worker crashes tolerated before the batcher declares
        itself dead (a clean tick resets the count).
    restart_backoff_s / max_backoff_s:
        Exponential backoff between worker restarts: the k-th consecutive
        crash waits ``restart_backoff_s * 2**(k-1)`` capped at
        ``max_backoff_s``.  ``close()`` interrupts the wait.
    poison_strikes:
        Worker crashes a single request may survive before it is
        quarantined (failed with :class:`WorkerCrashed`) instead of
        retried.
    client_quota:
        Maximum requests a single client id may have queued or in flight
        (``None`` = unlimited).  Requests without a client id are never
        quota-limited — only the global queue bound applies to them.
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` the batcher's
        counters and queue-wait histogram bind into (labeled
        ``model=name``).  Defaults to the process-wide registry; the
        bench injects a fresh one per server to isolate modes.
    """

    def __init__(self, service, max_queue_depth: int = 64,
                 coalesce: bool = True, name: str = "model",
                 max_restarts: int = 5, restart_backoff_s: float = 0.05,
                 max_backoff_s: float = 2.0, poison_strikes: int = 2,
                 client_quota: int | None = None, registry=None):
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be non-negative, got {max_queue_depth}"
            )
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be non-negative, got {max_restarts}")
        if poison_strikes < 1:
            raise ValueError(f"poison_strikes must be positive, got {poison_strikes}")
        if client_quota is not None and client_quota < 1:
            raise ValueError(f"client_quota must be positive, got {client_quota}")
        self.service = service
        # A service that renders response text itself (the worker pool)
        # hands back the text of each request's ``fmt`` in place of its
        # values, so handlers only pass bytes on.
        self._renders_text = getattr(service, "renders_text", False)
        self.max_queue_depth = max_queue_depth
        self.coalesce = coalesce
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        self.max_backoff_s = max_backoff_s
        self.poison_strikes = poison_strikes
        self.client_quota = client_quota
        self._queue = _AdmissionQueue()
        self._client_inflight: dict[str, int] = {}
        self._cond = threading.Condition()
        self._in_flight = 0
        self._streams_outstanding = 0
        self._closed = False
        self._dead = False
        self._ticks = 0
        self._replenish_ok = True
        # Supervision state.  _current_batch is touched only by the worker
        # thread (bound before a tick, read back by the supervisor after a
        # crash); the counters are read under _cond.
        self._current_batch: list | None = None
        self._consecutive_crashes = 0
        self._crashes = 0
        self._restarts = 0
        self._poisoned = 0
        self._deadline_drops = 0
        # Registry series, pre-bound once so hot-path updates are a
        # single locked increment each.
        self._model_name = name
        reg = registry if registry is not None else obs_metrics.REGISTRY
        self.telemetry_registry = reg
        self._m_queue_wait = reg.histogram(
            "batcher_queue_wait_seconds",
            "Time from request admission to the worker popping it",
        ).labels(model=name)
        self._m_crashes = reg.counter(
            "batcher_worker_crashes_total",
            "Worker crashes caught by the supervisor",
        ).labels(model=name)
        self._m_restarts = reg.counter(
            "batcher_worker_restarts_total",
            "Worker restarts after a crash",
        ).labels(model=name)
        self._m_quarantines = reg.counter(
            "batcher_worker_quarantines_total",
            "Requests quarantined after repeated worker crashes",
        ).labels(model=name)
        self._m_deadline_drops = reg.counter(
            "batcher_deadline_drops_total",
            "Requests dropped unserved because their deadline expired",
        ).labels(model=name)
        self._m_ticks = reg.counter(
            "batcher_ticks_total", "Drain ticks completed",
        ).labels(model=name)
        self._m_coalesced = reg.counter(
            "batcher_coalesced_requests_total",
            "Requests served through coalesced drain ticks",
        ).labels(model=name)
        self._wake = threading.Event()
        self._worker = threading.Thread(
            target=self._run, name=f"synthesis-batcher-{name}",
            daemon=True,
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Producer side (handler threads).
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests waiting plus requests currently being served."""
        with self._cond:
            return len(self._queue) + self._in_flight

    @property
    def ticks(self) -> int:
        """Drain ticks completed so far (each is ≤ 1 replenishment)."""
        with self._cond:
            return self._ticks

    @property
    def health(self) -> str:
        """``ok`` | ``degraded`` (crashed, recovering) | ``dead``."""
        with self._cond:
            return self._health_locked()

    def _health_locked(self) -> str:
        if self._dead:
            return "dead"
        if self._consecutive_crashes > 0:
            return "degraded"
        return "ok"

    def supervision(self) -> dict:
        """Health plus crash/restart/quarantine/deadline counters."""
        with self._cond:
            return {
                "health": self._health_locked(),
                "crashes": self._crashes,
                "restarts": self._restarts,
                "poisoned": self._poisoned,
                "deadline_drops": self._deadline_drops,
            }

    def queue_wait_summary(self) -> dict:
        """Admission→pop wait histogram (count/percentiles, JSON-ready)."""
        return self._m_queue_wait.summary()

    def _take_block(self, counts, formats):
        """The service's take_block, asking for rendered text when the
        service renders it and every request named its format."""
        if self._renders_text and None not in formats:
            return self.service.take_block(counts, formats=formats)
        return self.service.take_block(counts)

    def _check_accepting(self) -> None:
        if self._dead:
            raise BatcherDead(
                "batcher worker is dead (restart budget exhausted); "
                "the model must be reloaded"
            )
        if self._closed:
            raise BatcherClosed("batcher is shut down")

    def _client_load_locked(self, client: str | None) -> int:
        if client is None:
            return 0
        return (self._queue.queued_for(client)
                + self._client_inflight.get(client, 0))

    def _check_quota_locked(self, client: str | None) -> None:
        if self.client_quota is None or client is None:
            return
        load = self._client_load_locked(client)
        if load >= self.client_quota:
            raise QuotaExceeded(client, load, self.client_quota)

    def _admit(self, pending) -> None:
        with self._cond:
            self._check_accepting()
            self._check_quota_locked(pending.client)
            depth = len(self._queue) + self._in_flight
            if depth >= self.max_queue_depth:
                raise QueueSaturated(depth)
            self._queue.append(pending)
            if isinstance(pending, _PendingStream):
                # From admission until the worker finishes this stream the
                # pool-hit fast path stands down: a pool take between two
                # of its chunks would break the stream's contiguity.
                self._streams_outstanding += 1
            self._cond.notify()

    def submit(self, n: int, deadline: float | None = None,
               priority: int = 0, client: str | None = None,
               fmt: str | None = None):
        """Queue a request for ``n`` rows; block until served.

        Returns ``(values, offset)``: the decoded rows and their offset in
        the service's record stream.  With ``fmt`` (``"csv"`` or
        ``"json"``) a text-rendering service returns the rows' CSV lines
        or newline-ended JSON rows in place of values.  Raises
        :class:`QueueSaturated` when admission control rejects the
        request, :class:`QuotaExceeded`
        when ``client`` is over its per-client quota, :class:`BatcherClosed`
        after shutdown, :class:`BatcherDead` once the worker's restart
        budget is exhausted, and :class:`DeadlineExceeded` when
        ``deadline`` (absolute ``time.monotonic()`` seconds) passes
        before the request is served.  ``priority`` orders queued
        requests (higher pops first); ``client`` enters the request into
        its tenant's fair-share lane and quota.

        Pool-hit fast path: when the service's pool already holds the
        rows, the request is served in the caller's thread — there is no
        generator work to coalesce, so the two thread handoffs through
        the worker would be pure overhead.  Slice claims serialize on the
        service lock either way, so responses stay contiguous, disjoint
        slices in claim order.  The one case that must queue is while a
        *stream* is outstanding: a streamed export claims its span chunk
        by chunk, and a pool take between two of its chunks would break
        the stream's contiguity — the check runs under the queue
        condition, so no stream can be admitted or started concurrently.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        with self._cond:
            self._check_accepting()
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded(
                    "request deadline expired before admission"
                )
            # Admission control applies to the fast path too: a saturated
            # server must shed load with 429, not let pool-hit requests
            # jump a full queue — and a quota-capped tenant must not
            # sneak extra work in through pool hits either.
            self._check_quota_locked(client)
            depth = len(self._queue) + self._in_flight
            if depth >= self.max_queue_depth:
                raise QueueSaturated(depth)
            if self.coalesce and not self._streams_outstanding:
                # Armed tracing sees the probe as a "batcher" span in the
                # handler's own trace (fast_path/hit attrs tell the two
                # outcomes apart); the service's take_pooled span nests
                # under it.
                with trace.span("batcher", fast_path=True) as sp:
                    if self._renders_text and fmt is not None:
                        hit = self.service.take_pooled(n, fmt=fmt)
                    else:
                        hit = self.service.take_pooled(n)
                    sp.set(hit=hit is not None)
                if hit is not None:
                    if self.service.pooled_rows * 2 < self.service.pool_size:
                        # Pool running low: wake the idle worker so it
                        # replenishes ahead of the next miss.
                        self._cond.notify()
                    return hit
        pending = _PendingSlice(n, deadline, priority=priority,
                                client=client, fmt=fmt)
        self._admit(pending)
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        return pending.values, pending.offset

    def submit_stream(self, n: int, chunk_rows: int,
                      deadline: float | None = None, priority: int = 0,
                      client: str | None = None,
                      fmt: str | None = None) -> _PendingStream:
        """Queue a large export served as bounded-memory chunks.

        Returns the pending stream; iterate it for ``(values, offset)``
        chunks (it re-raises worker-side errors).  The export occupies the
        worker until it completes, so its rows form one contiguous stream
        slice exactly like a small response.  ``deadline`` is checked
        before every chunk: an expired stream fails mid-body rather than
        generating rows nobody will read.  ``fmt`` is as in
        :meth:`submit`.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded("request deadline expired before admission")
        pending = _PendingStream(n, chunk_rows, deadline=deadline,
                                 priority=priority, client=client, fmt=fmt)
        self._admit(pending)
        return pending

    def close(self, timeout: float | None = 10.0) -> None:
        """Shut down: drain everything already admitted, then stop.

        Idempotent.  Requests submitted after close are rejected; requests
        admitted before it are still served (graceful drain).  A worker
        sleeping in restart backoff is woken immediately.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._wake.set()
        self._worker.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Consumer side (the one worker thread, under supervision).
    # ------------------------------------------------------------------
    #: Sentinel action: the worker is idle and the pool is low — generate
    #: ahead of demand instead of sleeping.
    _REPLENISH = object()

    def _run(self) -> None:
        """Supervisor: restart the drain loop after crashes, with backoff."""
        while True:
            try:
                self._drain_forever()
                return
            except BaseException as exc:  # noqa: BLE001 — supervision seam
                if not self._on_crash(exc):
                    return

    def _on_crash(self, exc: BaseException) -> bool:
        """Settle a crashed tick's requests; True = restart the worker."""
        batch = self._current_batch or []
        self._current_batch = None
        failed_streams: list[tuple[_PendingStream, BaseException]] = []
        wrapped = WorkerCrashed(f"batcher worker crashed: {exc!r}")
        wrapped.__cause__ = exc
        poisoned_now = 0
        with self._cond:
            self._crashes += 1
            self._consecutive_crashes += 1
            consecutive = self._consecutive_crashes
            dead = self._consecutive_crashes > self.max_restarts
            retry: list[_PendingSlice] = []
            for pending in batch:
                if isinstance(pending, _PendingStream):
                    # Chunks may already be with the consumer, so a retry
                    # could never be transparent: streams always fail.
                    failed_streams.append((pending, wrapped))
                    continue
                if pending.event.is_set():
                    continue  # served (or failed) before the crash
                pending.strikes += 1
                if dead or pending.strikes >= self.poison_strikes:
                    if pending.strikes >= self.poison_strikes:
                        self._poisoned += 1
                        poisoned_now += 1
                    pending.error = wrapped
                    pending.event.set()
                else:
                    retry.append(pending)
            # Front-requeue in original order (the retry lane pops before
            # any priority band): the crashed tick claimed no stream
            # rows, so the retried take is bit-identical.
            self._queue.requeue_front(retry)
            if dead:
                self._dead = True
                for queued in self._queue.drain():
                    err = BatcherDead(
                        "batcher worker is dead (restart budget exhausted)"
                    )
                    err.__cause__ = exc
                    if isinstance(queued, _PendingStream):
                        self._streams_outstanding -= 1
                        failed_streams.append((queued, err))
                    else:
                        queued.error = err
                        queued.event.set()
            else:
                self._restarts += 1
            backoff = min(
                self.restart_backoff_s * (2 ** (self._consecutive_crashes - 1)),
                self.max_backoff_s,
            )
            self._cond.notify_all()
        # Registry counters + one structured log line (satellite of the
        # telemetry work): restart/quarantine events used to be visible
        # only as /healthz state, now they are scrapeable and carry the
        # trace context of whatever was in flight when the worker died.
        self._m_crashes.inc()
        if not dead:
            self._m_restarts.inc()
        if poisoned_now:
            self._m_quarantines.inc(poisoned_now)
        trace.log_event(
            "batcher.worker_crash",
            model=self._model_name,
            error=repr(exc),
            dead=dead,
            consecutive_crashes=consecutive,
            quarantined=poisoned_now,
            in_flight=[
                {
                    "kind": ("stream" if isinstance(p, _PendingStream)
                             else "slice"),
                    "rows": p.n,
                    "trace": p.ctx[0] if p.ctx else None,
                    "span": p.ctx[1] if p.ctx else None,
                }
                for p in batch
            ],
        )
        for stream, err in failed_streams:
            self._fail_stream(stream, err)
        if dead:
            return False
        # Interruptible backoff: close() sets _wake so shutdown is prompt.
        self._wake.wait(backoff)
        return True

    @staticmethod
    def _fail_stream(stream: _PendingStream, exc: BaseException) -> None:
        """Deliver a terminal error without blocking the supervisor forever."""
        give_up = time.monotonic() + 5.0
        while not stream.cancelled.is_set() and time.monotonic() < give_up:
            try:
                stream.chunks.put(("error", exc, None), timeout=0.05)
                return
            except queue.Full:
                continue

    def _replenish_ahead_needed(self) -> bool:
        return (self.coalesce and self._replenish_ok
                and self.service.pool_size > 0
                and self.service.pooled_rows * 2 < self.service.pool_size)

    def _expire(self, pending, now: float) -> bool:
        """Fail ``pending`` with 504 when its deadline passed (under _cond)."""
        if pending.deadline is None or now < pending.deadline:
            return False
        self._deadline_drops += 1
        self._m_deadline_drops.inc()
        err = DeadlineExceeded(
            "request deadline expired while queued; dropped unserved"
        )
        if isinstance(pending, _PendingStream):
            self._streams_outstanding -= 1
            try:
                pending.chunks.put_nowait(("error", err, None))
            except queue.Full:  # consumer stalled; it will see cancel
                pending.cancel()
        else:
            pending.error = err
            pending.event.set()
        return True

    def _next_action(self):
        """The worker's next unit of work (None = closed and drained)."""
        with self._cond:
            while True:
                now = time.monotonic()
                batch: list = []
                while len(self._queue):
                    head = self._queue.peek()
                    if self._expire(head, now):
                        self._queue.popleft()
                        continue
                    if not batch:
                        batch.append(self._queue.popleft())
                        if not (self.coalesce
                                and isinstance(head, _PendingSlice)):
                            break
                        continue
                    if isinstance(head, _PendingSlice):
                        batch.append(self._queue.popleft())
                        continue
                    break
                if batch:
                    self._in_flight = len(batch)
                    for pending in batch:
                        if pending.client is not None:
                            self._client_inflight[pending.client] = (
                                self._client_inflight.get(pending.client, 0)
                                + 1)
                    return batch
                if self._closed or self._dead:
                    return None
                if self._replenish_ahead_needed():
                    return self._REPLENISH
                self._cond.wait()

    def _drain_forever(self) -> None:
        while True:
            batch = self._next_action()
            if batch is None:
                return
            if batch is self._REPLENISH:
                # Idle read-ahead: generation overlaps request serving
                # (the service's pool lock stays free), so pool misses —
                # and their latency bubbles — happen off the request path.
                try:
                    self.service.replenish()
                except Exception:  # noqa: BLE001
                    # Don't spin on a persistently failing generator; the
                    # next queued take surfaces the error to a client.
                    self._replenish_ok = False
                continue
            self._current_batch = batch
            try:
                if isinstance(batch[0], _PendingStream):
                    self._serve_stream(batch[0])
                else:
                    # Crash seam: a fault armed at ``batcher.tick`` escapes
                    # to the supervisor and kills this worker.
                    fault_point("batcher.tick")
                    self._serve_slices(batch)
                self._current_batch = None
                with self._cond:
                    # A clean tick proves the worker healthy again.
                    self._consecutive_crashes = 0
            finally:
                with self._cond:
                    self._in_flight = 0
                    for pending in batch:
                        if pending.client is not None:
                            left = self._client_inflight.get(
                                pending.client, 0) - 1
                            if left > 0:
                                self._client_inflight[pending.client] = left
                            else:
                                self._client_inflight.pop(pending.client,
                                                          None)
                    if isinstance(batch[0], _PendingStream):
                        self._streams_outstanding -= 1
                    self._ticks += 1
                self._m_ticks.inc()

    def _serve_slices(self, batch: list) -> None:
        counts = [pending.n for pending in batch]
        popped = time.perf_counter()
        for pending in batch:
            self._m_queue_wait.record(popped - pending.admitted_at)
        self._m_coalesced.inc(len(batch))
        try:
            # The tick's span parents to the first request's handler span
            # (the tick serves many traces but runs once); every other
            # coalesced request gets its own "batcher" span after the
            # fact so each trace still shows where its time went.
            with trace.attach(batch[0].ctx):
                with trace.span("batcher", coalesced=len(batch),
                                rows=int(sum(counts))):
                    values, base = self._take_block(
                        counts, [p.fmt for p in batch])
            for pending in batch[1:]:
                if pending.ctx is not None:
                    trace.emit("batcher", popped, parent=pending.ctx,
                               coalesced=len(batch), rows=pending.n)
        except Exception as exc:  # noqa: BLE001 — per-request error path
            for pending in batch:
                pending.error = exc
                pending.event.set()
            return
        # A successful take proves the generator healthy again, so a
        # transient replenish failure doesn't disable read-ahead forever.
        self._replenish_ok = True
        offset = base
        for pending, block in zip(batch, values):
            pending.values = block
            pending.offset = offset
            offset += pending.n
            pending.event.set()

    def _serve_stream(self, stream: _PendingStream) -> None:
        self._m_queue_wait.record(time.perf_counter() - stream.admitted_at)
        # One span covers the whole export; per-chunk take_block spans
        # nest under it, all parented into the requesting handler's trace.
        with trace.attach(stream.ctx):
            with trace.span("batcher", stream=True, rows=stream.n):
                self._stream_chunks(stream)

    def _stream_chunks(self, stream: _PendingStream) -> None:
        def hand_over(item) -> bool:
            """Put with cancellation checks; False = consumer gave up."""
            while True:
                if stream.cancelled.is_set():
                    return False
                try:
                    stream.chunks.put(item, timeout=0.1)
                    return True
                except queue.Full:
                    continue

        remaining = stream.n
        while remaining:
            # Crash seam: armed faults escape here, killing the worker
            # *mid-stream* — the consumer sees a truncated chunked body.
            fault_point("batcher.tick")
            if (stream.deadline is not None
                    and time.monotonic() >= stream.deadline):
                with self._cond:
                    self._deadline_drops += 1
                hand_over((
                    "error",
                    DeadlineExceeded("stream deadline expired mid-export"),
                    None,
                ))
                return
            try:
                rows = min(stream.chunk_rows, remaining)
                values, base = self._take_block([rows], [stream.fmt])
            except Exception as exc:  # noqa: BLE001 — per-request error path
                hand_over(("error", exc, None))
                return
            remaining -= rows
            if not hand_over(("chunk", values[0], base)):
                return
        hand_over(("end", None, None))

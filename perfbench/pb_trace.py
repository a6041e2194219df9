"""Per-layer spans for the traced run, recorded from the harness's side.

The harness adds no probes to the program.  :class:`Tracer` wraps public
methods of the program's classes for the length of a traced run and
accumulates, per span name, a call count and the wall time spent inside
the outermost call (a method that calls another wrapped method of the
same layer is counted once).  :meth:`Tracer.close` puts every original
method back.

The untraced run never installs a wrapper, so the difference between the
two runs' end-to-end figures is the tracing overhead.
"""

from __future__ import annotations

import functools
import threading
import time


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list] = {}
        self.labels: dict[int, str] = {}
        self._undo: list = []

    # ------------------------------------------------------------------
    def add(self, name: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += seconds

    def seconds(self, name: str) -> float:
        with self._lock:
            return self.spans.get(name, (0, 0.0))[1]

    def calls(self, name: str) -> int:
        with self._lock:
            return self.spans.get(name, (0, 0.0))[0]

    def snapshot(self) -> dict:
        with self._lock:
            return {name: {"calls": c, "s": s}
                    for name, (c, s) in sorted(self.spans.items())}

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name, group: str | None = None) -> None:
        """Time ``owner.attr`` under span ``name``.

        ``name`` is a string or a callable ``(self_obj) -> str | None``;
        ``None`` skips the call.  Calls nested inside another call of the
        same ``group`` on the same thread are not counted again.
        """
        had_own = attr in owner.__dict__
        original = getattr(owner, attr)
        group = group or attr
        tracer = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            span = name(obj) if callable(name) else name
            depth = getattr(tracer._local, group, 0)
            if span is None or depth:
                return original(obj, *args, **kwargs)
            setattr(tracer._local, group, 1)
            started = time.perf_counter()
            try:
                return original(obj, *args, **kwargs)
            finally:
                tracer.add(span, time.perf_counter() - started)
                setattr(tracer._local, group, 0)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, had_own))

    def close(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def net_label(self, prefix: str, suffix: str):
        """Span namer for a network method: ``nn.G.forward_s`` etc."""
        def namer(net):
            label = self.labels.get(id(net))
            return None if label is None else f"{prefix}.{label}.{suffix}"
        return namer


def install_library(tracer: Tracer) -> None:
    """Wrap the in-process layers the training and export paths use."""
    from repro.core.trainer import TableGanTrainer
    from repro.data.encoding import TableCodec
    from repro.data.matrixizer import Matrixizer
    from repro.nn.optim import Adam
    from repro.nn.sequential import Sequential
    from repro.serve.registry import ModelRegistry
    from repro.serve.sinks import CsvSink

    for attr in ("fit", "encode"):
        tracer.wrap(TableCodec, attr, "data.codec_s", group="data")
    tracer.wrap(Matrixizer, "to_matrices", "data.codec_s", group="data")
    tracer.wrap(TableCodec, "decode", "data.decode_s", group="data")
    tracer.wrap(Sequential, "forward", tracer.net_label("nn", "forward_s"),
                group="nn")
    for attr in ("backward", "backward_from", "backward_to"):
        tracer.wrap(Sequential, attr, tracer.net_label("nn", "backward_s"),
                    group="nn")
    tracer.wrap(Sequential, "stream_forward", "nn.G.stream_forward_s",
                group="nn")
    tracer.wrap(Adam, "step", "nn.optim_s", group="optim")
    tracer.wrap(ModelRegistry, "register", "serve.registry.register_s",
                group="registry")
    tracer.wrap(ModelRegistry, "load", "serve.registry.load_s",
                group="registry")
    tracer.wrap(CsvSink, "write", "serve.sinks.write_s", group="sink")
    tracer.wrap(CsvSink, "close", "serve.sinks.commit_s", group="sink")

    # Label the three networks when a trainer is built around them, and
    # keep the trainer's own phase profile for the report.
    original_init = TableGanTrainer.__init__
    original_train = TableGanTrainer.train

    def init(trainer, generator, discriminator, classifier, *args, **kwargs):
        tracer.labels[id(generator)] = "G"
        tracer.labels[id(discriminator)] = "D"
        if classifier is not None:
            tracer.labels[id(classifier)] = "C"
        original_init(trainer, generator, discriminator, classifier,
                      *args, **kwargs)

    def train(trainer, *args, **kwargs):
        started = time.perf_counter()
        try:
            return original_train(trainer, *args, **kwargs)
        finally:
            tracer.add("core.trainer.train_s", time.perf_counter() - started)
            for phase, entry in trainer.profile.snapshot().items():
                tracer.add(f"core.trainer.{phase}_s", entry["total_s"],
                           entry["count"])

    TableGanTrainer.__init__ = init
    TableGanTrainer.train = train
    tracer._undo.append((TableGanTrainer, "__init__", original_init, True))
    tracer._undo.append((TableGanTrainer, "train", original_train, True))


def install_server(tracer: Tracer) -> None:
    """Wrap the serving layers; runs inside the server process."""
    from repro.data.encoding import TableCodec
    from repro.nn.sequential import Sequential
    from repro.serve.quality import QualityMonitor
    from repro.serve.registry import ModelRegistry
    from repro.serve.server.procpool import WorkerPoolService
    from repro.serve.service import SynthesisService

    tracer.wrap(TableCodec, "decode", "data.decode_s", group="data")
    tracer.wrap(Sequential, "stream_forward", "nn.G.stream_forward_s",
                group="nn")
    tracer.wrap(ModelRegistry, "load", "serve.registry.load_s",
                group="registry")
    for service in (SynthesisService, WorkerPoolService):
        tracer.wrap(service, "take_block", "serve.service.take_block_s",
                    group="take")
        tracer.wrap(service, "take_pooled", "serve.service.take_pooled_s",
                    group="take")
    # The pool's take_block is where the parent waits for its workers.
    original = WorkerPoolService.take_block

    def pool_take_block(service, *args, **kwargs):
        started = time.perf_counter()
        try:
            return original(service, *args, **kwargs)
        finally:
            tracer.add("procpool.take_block_wait_s",
                       time.perf_counter() - started)

    WorkerPoolService.take_block = pool_take_block
    tracer._undo.append((WorkerPoolService, "take_block", original, True))
    for attr in ("tap", "fold"):
        tracer.wrap(QualityMonitor, attr, "obs.quality.tap_s", group="quality")

"""Workload ``export``: ``ShardedSampler.sample_to_sink`` into a ``CsvSink``.

The ``repro synth`` path at its default of one worker, with 2048-row
shards: bulk generator forward and decode with no HTTP in between, then
the sink's CSV rendering and atomic commit.  It is the only workload that
runs ``serve/sharding`` and ``serve/sinks``.
"""

from __future__ import annotations

import csv
import random
import statistics
import time

import numpy as np

import pb_common
import pb_stats

SETUP_REPEATS = 9
#: Percentile of the bounded tail metric: a 30 s window holds ~360
#: shards, and p90 keeps ten beyond it down to 100.
TAIL_P = 90.0
#: Rows per export; each export opens, fills and commits one sink.
EXPORT_ROWS = 32768
SHARD_ROWS = 2048
#: Shards regenerated through the public sampler to check file contents.
CHECK_SHARDS = 2


class ShardClock:
    """Forwards writes to a sink and timestamps each one (one shard)."""

    def __init__(self, sink, started: float):
        self.sink = sink
        self.last = started
        self.seconds: list[float] = []

    def write(self, values):
        rows = self.sink.write(values)
        now = time.perf_counter()
        self.seconds.append(now - self.last)
        self.last = now
        return rows


def run(workload: str, seed: int, seconds: float, tracer, workdir, out) -> None:
    registry = workdir / "registry"
    pb_common.prepare_model(registry)
    setups = [pb_common.run_probe(["export", str(registry),
                                   str(workdir / "probe.csv")])
              for _ in range(SETUP_REPEATS)]

    pb_common.use_program()
    from repro.data.datasets import load_dataset
    from repro.data.table import Table
    from repro.evaluation.statistical import mean_area_distance
    from repro.serve import CsvSink, ShardedSampler, plan_shards

    if tracer is not None:
        import pb_trace

        pb_trace.install_library(tracer)
    sampler = ShardedSampler(registry, pb_common.MODEL_NAME,
                             shard_rows=SHARD_ROWS)
    schema = sampler.schema
    # Warm-up export (model load, first-call allocations), not timed.
    with CsvSink(workdir / "warm.csv", schema) as sink:
        sampler.sample_to_sink(SHARD_ROWS, sink, seed=seed)

    # --- timed window ---------------------------------------------------
    exports = []  # (path, export seed, rows written, seconds)
    shard_seconds: list[float] = []
    window_end = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < window_end or not exports:
        export_seed = seed * 1000 + index
        path = workdir / f"export-{index}.csv"
        started = time.perf_counter()
        with CsvSink(path, schema) as sink:
            # Shards are timed from the open sink; the export's rate
            # includes the open and the commit.
            clock = ShardClock(sink, time.perf_counter())
            rows = sampler.sample_to_sink(EXPORT_ROWS, clock, seed=export_seed)
        elapsed = time.perf_counter() - started
        shard_seconds.extend(clock.seconds)
        exports.append((path, export_seed, rows, elapsed))
        index += 1
    # ---------------------------------------------------------------------
    if tracer is not None:
        tracer.close()
    peak_rss = pb_common.self_peak_rss_mb()

    # --- output checks, outside the window ------------------------------
    header = list(schema.names)
    picker = random.Random(seed)
    picks = {(picker.randrange(len(exports)),
              picker.randrange(EXPORT_ROWS // SHARD_ROWS))
             for _ in range(CHECK_SHARDS)}
    model = sampler.model()
    regenerated = []
    for i, (path, export_seed, rows, _) in enumerate(exports):
        out.attempted += 1
        with open(path, newline="") as handle:
            lines = list(csv.reader(handle))
        if rows != EXPORT_ROWS or len(lines) - 1 != EXPORT_ROWS:
            out.fail(f"{path.name}: {len(lines) - 1} rows on disk, "
                     f"{rows} reported, {EXPORT_ROWS} asked")
            continue
        if lines[0] != header:
            out.fail(f"{path.name}: wrong header {lines[0][:8]}")
            continue
        shards = plan_shards(EXPORT_ROWS, SHARD_ROWS, export_seed)
        for j in sorted(s for e, s in picks if e == i):
            values = model.sample(shards[j].rows,
                                  rng=np.random.default_rng(shards[j].seed)).values
            regenerated.append(values)
            expected = pb_common.csv_cells(pb_common.render_rows(values, schema))
            start = 1 + j * SHARD_ROWS
            if lines[start:start + len(expected)] != expected:
                out.fail(f"{path.name}: shard {j} differs from the rows the "
                         "public sampler regenerates")
        path.unlink()
    reference = load_dataset(pb_common.DATASET, rows=pb_common.SERVE_MODEL_ROWS,
                             seed=pb_common.SERVE_MODEL_SEED).train
    fidelity = (mean_area_distance(
        reference, Table(np.concatenate(regenerated), schema))
        if regenerated else None)

    rates = [rows / elapsed for _, _, rows, elapsed in exports]
    shard = pb_stats.summarize(shard_seconds, TAIL_P)
    rows_per_s = statistics.median(rates)
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "rows_per_s": rows_per_s,
        "p50_ms": shard["p50"] * 1e3,
        "tail_ms": pb_stats.tail_or_max(shard) * 1e3,
    })
    out.report("setup_s", statistics.median(setups), "s",
               f"(median of {SETUP_REPEATS} fresh processes)")
    out.report("export_rows_per_s", rows_per_s, "rows/s",
               f"(median of {len(exports)} exports of {EXPORT_ROWS} rows, "
               "commit included)")
    out.report_timing("shard_ms", shard_seconds)
    out.report("fidelity_cdf_area", fidelity, "area",
               f"({len(regenerated)} regenerated shards)")
    out.report("peak_rss_mb", peak_rss, "MB")
    if tracer is not None:
        out.layers["trace.rows_per_s"] = rows_per_s
        out.layers["trace.p50_ms"] = shard["p50"] * 1e3
        out.layers["trace.tail_ms"] = out.metrics["tail_ms"]

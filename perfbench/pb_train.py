"""Workload ``train``: table in memory -> ``TableGAN.fit`` -> registry commit.

Serial Algorithm 2 on the in-tree lacity table at the paper's row count
(15 000 rows, 12 000 after the train/test split), then
``ModelRegistry.register`` with frozen reference statistics, exactly as
``repro train --register`` does it.  The nn kernels and the trainer do
nearly all of the work.  The window holds ``--seconds / 10`` fits (at
least one), each timed from the table in memory to its registry commit.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import pb_common
import pb_stats

EPOCHS = 2
#: One paper-scale fit per this many seconds of window.  The count is a
#: function of ``--seconds`` alone, so every run of a window has the same
#: number of batches and reports the same tail percentile.  A fit takes
#: 9-12 s on a 2-core machine.
SECONDS_PER_FIT = 10
SETUP_REPEATS = 9
#: Percentile of the bounded tail metric: three fits give ~1 100
#: batches, and p95 keeps ten beyond it down to 200.
TAIL_P = 95.0
#: Rows sampled from the registered model for the fidelity score and the
#: registry round-trip check.
CHECK_ROWS = 2048


class BatchClock:
    """A trainer checkpointer that saves nothing and timestamps each batch.

    ``TableGAN.fit`` hands its ``checkpointer`` a call after every batch
    and epoch; reading the clock there costs one ``perf_counter`` per
    batch and needs no wrapper in the program.
    """

    def __init__(self):
        self.batches: list[tuple[int, float]] = []
        self.epochs: list[float] = []
        self.started = 0.0

    def restore(self, trainer, rng, history, n_rows):
        self.started = time.perf_counter()
        return None

    def on_batch(self, trainer, rng, *, epoch, n_batches, **_):
        self.batches.append((epoch, time.perf_counter()))

    def on_epoch(self, trainer, rng, *, epoch, **_):
        self.epochs.append(time.perf_counter())

    def batch_seconds(self) -> list[float]:
        """Wall time of every batch but each epoch's first (which also
        pays the epoch's shuffle, or the trainer's set-up)."""
        out = []
        for (e0, t0), (e1, t1) in zip(self.batches, self.batches[1:]):
            if e0 == e1:
                out.append(t1 - t0)
        return out

    def epoch_seconds(self) -> list[float]:
        starts = [self.started] + self.epochs[:-1]
        return [end - start for start, end in zip(starts, self.epochs)]


def run(workload: str, seed: int, seconds: float, tracer, workdir, out) -> None:
    setups = [pb_common.run_probe(["train", str(seed)])
              for _ in range(SETUP_REPEATS)]

    pb_common.use_program()
    from repro import TableGAN, low_privacy
    from repro.data.datasets import PAPER_ROWS, load_dataset
    from repro.evaluation.statistical import mean_area_distance
    from repro.obs.quality import reference_stats
    from repro.serve import ModelRegistry

    if tracer is not None:
        import pb_trace

        pb_trace.install_library(tracer)
    table = load_dataset(pb_common.DATASET, rows=PAPER_ROWS[pb_common.DATASET],
                         seed=seed).train
    registry = ModelRegistry(workdir / "registry")

    # --- timed window: table in memory -> registry commit, repeated -----
    fits = []  # (name, fitted model, batch clock, seconds to model)
    for index in range(max(1, round(seconds / SECONDS_PER_FIT))):
        name = f"{pb_common.MODEL_NAME}-{index}"
        clock = BatchClock()
        gan = TableGAN(low_privacy(epochs=EPOCHS, seed=seed))
        started = time.perf_counter()
        gan.fit(table, checkpointer=clock)
        registry.register(name, gan, reference_stats=reference_stats(table))
        fits.append((name, gan, clock, time.perf_counter() - started))
    # -------------------------------------------------------------------
    if tracer is not None:
        tracer.close()
    peak_rss = pb_common.self_peak_rss_mb()

    # --- output checks, outside the window ------------------------------
    for name, gan, _, _ in fits:
        out.attempted += 1
        losses = [value for epoch in gan.history_.epochs
                  for value in vars(epoch).values()]
        if (len(gan.history_.epochs) != EPOCHS
                or not all(map(math.isfinite, losses))):
            out.fail(f"{name}: non-finite or missing epoch losses: {losses}")
        loaded = registry.load(name)
        mine = gan.sample(CHECK_ROWS, rng=np.random.default_rng(seed)).values
        theirs = loaded.sample(CHECK_ROWS, rng=np.random.default_rng(seed))
        if not np.array_equal(mine, theirs.values):
            out.fail(f"{name}: registry-loaded model samples differently "
                     "from the in-memory model")
    fidelity = mean_area_distance(table, theirs)

    batches = [b for _, _, clock, _ in fits for b in clock.batch_seconds()]
    batch = pb_stats.summarize(batches, TAIL_P)
    epochs = [e for _, _, clock, _ in fits for e in clock.epoch_seconds()[1:]]
    epoch_s = statistics.median(epochs)
    time_to_model = statistics.median(t for _, _, _, t in fits)
    batch_rows = min(gan.config.batch_size, table.n_rows)
    rows_per_s = batch_rows * len(batches) / sum(batches)

    out.metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "rows_per_s": rows_per_s,
        "p50_ms": batch["p50"] * 1e3,
        "tail_ms": pb_stats.tail_or_max(batch) * 1e3,
    })
    out.report("setup_s", statistics.median(setups), "s",
               f"(median of {SETUP_REPEATS} fresh processes)")
    out.report("time_to_model_s", time_to_model, "s",
               f"(median of {len(fits)} fits of {table.n_rows} rows x "
               f"{EPOCHS} epochs, fit + register)")
    out.report("epoch_s", epoch_s, "s",
               f"(median of {len(epochs)}, each fit's epoch 1 excluded)")
    out.report("fidelity_cdf_area", fidelity, "area",
               f"({CHECK_ROWS} rows from the registered model)")
    out.report("train_rows_per_s", rows_per_s, "rows/s")
    out.report_timing("batch_ms", batches)
    out.report("peak_rss_mb", peak_rss, "MB")

    if tracer is not None:
        nn = ("forward_s", "backward_s")
        nn_total = sum(tracer.seconds(f"nn.{net}.{kind}")
                       for net in "GDC" for kind in nn)
        nn_total += tracer.seconds("nn.optim_s")
        out.layers["core.trainer.self_s"] = (
            tracer.seconds("core.trainer.train_s") - nn_total)
        out.layers["trace.time_to_model_s"] = time_to_model
        out.layers["trace.rows_per_s"] = rows_per_s
        out.layers["trace.p50_ms"] = out.metrics["p50_ms"]
        out.layers["trace.tail_ms"] = out.metrics["tail_ms"]

"""Child-process steps of the harness: set-up probes and model preparation.

``python3 perfbench/pb_probe.py train SEED``
    import the program and build the training table; print ``ready``.
``python3 perfbench/pb_probe.py export REGISTRY SINK_PATH``
    load the registered model and open the CSV sink; print ``ready``.
``python3 perfbench/pb_probe.py prepare REGISTRY``
    train the export/serving model and register it with reference stats;
    print one JSON line describing it.

Each probe is a fresh process, so the parent's spawn-to-``ready`` time is
the workload's set-up time from process start.
"""

from __future__ import annotations

import json
import sys

import pb_common


def main(argv) -> int:
    pb_common.use_program()
    mode = argv[0]
    if mode == "train":
        from repro.data.datasets import PAPER_ROWS, load_dataset

        load_dataset(pb_common.DATASET, rows=PAPER_ROWS[pb_common.DATASET],
                     seed=int(argv[1]))
        print("ready", flush=True)
        return 0
    if mode == "export":
        from repro.serve import CsvSink, ShardedSampler

        sampler = ShardedSampler(argv[1], pb_common.MODEL_NAME)
        sink = CsvSink(argv[2], sampler.schema)
        print("ready", flush=True)
        sink.close(commit=False)
        return 0
    if mode == "prepare":
        from repro import TableGAN, low_privacy
        from repro.data.datasets import load_dataset
        from repro.obs.quality import reference_stats
        from repro.serve import ModelRegistry

        bundle = load_dataset(pb_common.DATASET,
                              rows=pb_common.SERVE_MODEL_ROWS,
                              seed=pb_common.SERVE_MODEL_SEED)
        gan = TableGAN(low_privacy(epochs=pb_common.SERVE_MODEL_EPOCHS,
                                   seed=pb_common.SERVE_MODEL_SEED))
        gan.fit(bundle.train)
        manifest = ModelRegistry(argv[1]).register(
            pb_common.MODEL_NAME, gan,
            reference_stats=reference_stats(bundle.train))
        print(json.dumps({"name": manifest["name"]}), flush=True)
        return 0
    print(f"unknown probe mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

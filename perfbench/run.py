"""End-to-end benchmark of the table-GAN training and serving system.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with the harness's span wrappers installed and reports the
per-layer metrics instead.  Metric names, units and workloads come from
``BENCHMARK.json`` beside this directory.  Human-readable lines go first;
the last line of standard output is one JSON object.  The exit code is
non-zero when any output check failed, and no result is printed when the
run could not be measured at all (no program, a crash, or a load
generator that fell behind its own schedule).

``perfbench/README.md`` documents every workload and metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import traceback

import pb_common

MODULES = {
    "train": "pb_train",
    "export": "pb_export",
    "serve-bulk": "pb_serve",
}


def _spec() -> dict:
    with open(pb_common.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _layer_value(name: str, out, tracer) -> float:
    """A per-layer figure: set by the workload, or read off a span."""
    if name in out.layers:
        return float(out.layers[name])
    if tracer is None:
        return 0.0
    if name.endswith("_calls"):
        return float(tracer.calls(name[: -len("_calls")] + "_s"))
    return tracer.seconds(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not pb_common.program_present():
        print(f"no program sources at {pb_common.SRC}: run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    spec = _spec()
    env = pb_common.environment()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    module = importlib.import_module(MODULES[args.workload])
    tracer = None
    if args.trace:
        import pb_trace

        tracer = pb_trace.Tracer()
    out = pb_common.Outcome()
    workdir = pb_common.make_workdir()
    try:
        module.run(args.workload, args.seed, args.seconds, tracer, workdir, out)
    except pb_common.InvalidRun as exc:
        print(f"run invalid, not recorded: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.close()
        pb_common.remove_workdir(workdir)

    if args.trace:
        wanted = spec["per_layer"]
        metrics = {m["name"]: _layer_value(m["name"], out, tracer)
                   for m in wanted}
    else:
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
        if missing:
            print(f"workload produced no value for {missing}", file=sys.stderr)
            return 1
        metrics = {m["name"]: float(out.metrics[m["name"]]) for m in wanted}

    print(f"{args.workload}: workload metrics")
    for line in out.lines:
        print(line)
    fail_frac = out.failed / max(out.attempted, 1)
    print(f"  {'fail_frac':<28} {fail_frac:>12.6g} frac    "
          f"({out.failed} of {out.attempted} operations)")
    print(f"{args.workload}: {'per-layer' if args.trace else 'end-to-end'} "
          "metrics")
    for m in wanted:
        print(f"  {m['name']:<34} {metrics[m['name']]:>14.6g} {m['unit']}")
    for error in out.errors[:20]:
        print(f"FAILED: {error}")
    result = {
        "correct": out.failed == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

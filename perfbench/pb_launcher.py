"""Traced server launcher: ``python3 perfbench/pb_launcher.py SPANS_JSON serve ...``.

Installs the harness's span wrappers inside the server process, runs the
program's own ``repro`` command line (everything after ``SPANS_JSON``),
and when the server has drained writes the accumulated spans to
``SPANS_JSON``.  The untraced run starts ``python -m repro serve``
directly instead.
"""

from __future__ import annotations

import json
import os
import sys

import pb_common
import pb_trace


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    pb_common.use_program()
    from repro.cli import main as repro_main

    tracer = pb_trace.Tracer()
    pb_trace.install_server(tracer)
    launcher_pid = os.getpid()
    try:
        return repro_main(cli_args)
    finally:
        # Forked pool workers unwind through here too; only the server
        # process reports.
        if os.getpid() == launcher_pid:
            tracer.close()
            tmp = f"{out_path}.tmp"
            with open(tmp, "w") as handle:
                json.dump(tracer.snapshot(), handle)
            os.replace(tmp, out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

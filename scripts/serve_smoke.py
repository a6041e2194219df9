"""CI smoke test for the long-lived synthesis server.

End to end through the real process boundary: train a tiny model,
register it, boot ``python -m repro serve`` as a subprocess on a free
port, hit ``/healthz`` and one ``/sample`` with the client library, then
SIGTERM the server and assert it drains and exits cleanly (code 0).
The same pass then repeats with ``--server-workers 2`` — the
multi-process serving tier must boot, serve, and drain (including its
worker processes and shared-memory segments) just as cleanly.  Each pass
also takes one streamed CSV export above the stream threshold; the two
tiers' export bodies must be byte-identical.

Every wait is bounded, so a wedged server fails the job instead of
hanging it.  Run from the repository root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

TIMEOUT_S = 120
#: Above the server's default 10 000-row stream threshold.
EXPORT_ROWS = 12_000


def fail(message: str) -> None:
    print(f"SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def train_and_register(registry_dir: str) -> None:
    from repro import TableGAN, low_privacy
    from repro.data.datasets import load_dataset
    from repro.serve import ModelRegistry

    bundle = load_dataset("adult", rows=64, seed=0)
    gan = TableGAN(low_privacy(epochs=1, batch_size=16, base_channels=4,
                               seed=0))
    gan.fit(bundle.train)
    ModelRegistry(registry_dir).register("smoke", gan, version="1")
    print("registered tiny model 'smoke@1'")


def read_port(proc: subprocess.Popen) -> int:
    """Parse the bound port from the server's boot line (bounded wait)."""
    result = {}

    def reader():
        for line in proc.stdout:
            print(f"[serve] {line.rstrip()}")
            if " at http://" in line and "port" not in result:
                result["port"] = int(line.rsplit(":", 1)[1])
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout=TIMEOUT_S)
    if "port" not in result:
        fail("server did not print its address in time")
    return result["port"]


def run_pass(registry_dir: str, extra_args: list, label: str) -> str:
    """Boot one server configuration, exercise it, drain it; returns the
    streamed CSV export's body."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--registry",
         registry_dir, "--host", "127.0.0.1", "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        port = read_port(proc)
        from repro.serve import SynthesisClient

        with SynthesisClient(port=port, timeout=TIMEOUT_S) as client:
            health = client.health()
            if health["status"] != "ok":
                fail(f"[{label}] unexpected /healthz reply: {health}")
            print(f"[{label}] healthz ok (uptime {health['uptime_s']:.2f}s)")
            reply = client.sample("smoke", 32)
            if len(reply["rows"]) != 32 or reply["offset"] != 0:
                fail(f"[{label}] bad sample reply: n={len(reply['rows'])} "
                     f"offset={reply['offset']}")
            print(f"[{label}] sampled {len(reply['rows'])} rows x "
                  f"{len(reply['columns'])} columns from 'smoke'")
            export = client.sample_csv("smoke", EXPORT_ROWS)
            lines = export.count("\r\n")
            if lines != EXPORT_ROWS + 1:
                fail(f"[{label}] streamed export has {lines} lines, "
                     f"expected {EXPORT_ROWS} rows plus a header")
            print(f"[{label}] streamed a {EXPORT_ROWS}-row CSV export "
                  f"({len(export)} bytes)")

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=TIMEOUT_S)
        if code != 0:
            fail(f"[{label}] server exited with code {code} after SIGTERM")
        print(f"[{label}] server drained and exited cleanly")
        check_shm_clean(proc.pid, label)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
            fail(f"[{label}] server had to be killed")
    return export


def check_shm_clean(pid: int, label: str) -> None:
    """No serving-pool shared-memory segment of the server with ``pid``
    may outlive it.  Segments are named ``rpool<pid>_<seq><tag>``, so
    servers running beside this one do not count."""
    if not os.path.isdir("/dev/shm"):
        return  # non-POSIX-shm platform: nothing to check
    leaked = [name for name in os.listdir("/dev/shm")
              if name.startswith(f"rpool{pid}_")]
    if leaked:
        fail(f"[{label}] leaked shared-memory segments after drain: {leaked}")
    print(f"[{label}] no leaked shared-memory segments")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        registry_dir = os.path.join(tmp, "registry")
        train_and_register(registry_dir)
        threaded = run_pass(registry_dir, [], "threaded")
        pooled = run_pass(registry_dir, ["--server-workers", "2"],
                          "workers=2")
        if pooled != threaded:
            fail("the streamed CSV export differs between the threaded "
                 "and the --server-workers 2 tier")
        print("streamed CSV exports are byte-identical across tiers")
    print("SMOKE PASSED")


if __name__ == "__main__":
    start = time.monotonic()
    main()
    print(f"total {time.monotonic() - start:.1f}s")

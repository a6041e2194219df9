"""Shared harness plumbing: paths, environment stamp, child processes.

The harness runs from the root of a source checkout and drives the
program from ``src/`` without installing it.  Every file it writes lives
under ``perfbench/.work/`` in that checkout and is removed at exit.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pb_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Lacity is the in-tree table the paper trains on; PAPER_ROWS["lacity"]
#: (15 000, split 80/20) is its paper-scale row count.
DATASET = "lacity"
MODEL_NAME = "bench"
#: The export/serving model: the same generator architecture as a
#: paper-scale fit (it depends on the column count, not the row count),
#: trained briefly on a fixed table so every seed serves the same model.
SERVE_MODEL_ROWS = 1024
SERVE_MODEL_EPOCHS = 1
SERVE_MODEL_SEED = 11


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def make_workdir() -> Path:
    path = HERE / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


# ----------------------------------------------------------------------
# Environment stamp.
# ----------------------------------------------------------------------
def _blas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    """Where a report was measured: cores, affinity, BLAS, versions, SHA."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


# ----------------------------------------------------------------------
# Child processes: always bounded, always reaped.
# ----------------------------------------------------------------------
def spawn(argv, **kwargs) -> subprocess.Popen:
    """Start a child in its own session so the whole tree can be killed."""
    return subprocess.Popen(argv, env=child_env(), cwd=str(ROOT),
                            start_new_session=True, **kwargs)


def kill_tree(proc: subprocess.Popen, grace_s: float = 10.0) -> bool:
    """SIGTERM, wait up to ``grace_s``, then SIGKILL the process group.

    Returns True when the process exited within the grace period.
    """
    clean = True
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            clean = False
    try:
        # Leftover group members (e.g. orphaned pool workers) go too.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        clean = False
    return clean


def read_line_matching(proc: subprocess.Popen, predicate, deadline: float
                       ) -> str | None:
    """Read ``proc``'s stdout (opened with ``stdout=PIPE``, binary) until a
    line satisfies ``predicate`` or ``deadline`` (perf_counter) passes.

    Returns the line, or ``None`` on timeout or end of output; never
    blocks past the deadline.
    """
    fd = proc.stdout.fileno()
    buffer = b""
    while True:
        while b"\n" in buffer:
            raw, buffer = buffer.split(b"\n", 1)
            line = raw.decode("utf-8", "replace")
            if predicate(line):
                return line
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return None
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            return None
        chunk = os.read(fd, 65536)
        if not chunk:
            return None
        buffer += chunk


def run_probe(args, timeout_s: float = 60.0) -> float:
    """Spawn ``pb_probe.py ARGS`` and time it from spawn to its ready line."""
    started = time.perf_counter()
    proc = spawn([sys.executable, str(HERE / "pb_probe.py"), *args],
                 stdout=subprocess.PIPE)
    try:
        line = read_line_matching(proc, lambda l: l.startswith("ready"),
                                  started + timeout_s)
        elapsed = time.perf_counter() - started
        if line is None:
            raise RuntimeError(f"probe {args[0]} never became ready")
        return elapsed
    finally:
        kill_tree(proc, grace_s=5.0)
        proc.stdout.close()


def prepare_model(registry: Path, timeout_s: float = 120.0) -> dict:
    """Train and register the export/serving model in a child process."""
    proc = spawn([sys.executable, str(HERE / "pb_probe.py"), "prepare",
                  str(registry)], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        kill_tree(proc)
        raise RuntimeError("model preparation timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"model preparation failed ({proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Output oracle.
# ----------------------------------------------------------------------
def render_rows(values, schema) -> list[list]:
    """Rows as the program should render them, written independently of
    its renderer: categorical codes round to their category name,
    discrete values to ints, continuous values stay floats."""
    import numpy as np

    columns = []
    for j, spec in enumerate(schema.columns):
        col = np.asarray(values)[:, j]
        kind = spec.kind.value
        if kind == "categorical":
            codes = np.clip(np.rint(col).astype(int), 0, len(spec.categories) - 1)
            columns.append([spec.categories[c] for c in codes])
        elif kind == "discrete":
            columns.append([int(v) for v in np.rint(col)])
        else:
            columns.append([float(v) for v in col])
    return [list(row) for row in zip(*columns)]


def csv_cells(rows) -> list[list[str]]:
    """What ``csv.reader`` gives back for ``rows`` written as CSV."""
    return [[str(cell) for cell in row] for row in rows]


# ----------------------------------------------------------------------
# Memory.
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> list[int]:
    out = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as handle:
                out.extend(int(tok) for tok in handle.read().split())
        except OSError:
            pass
    return out


def process_tree(pid: int) -> set[int]:
    """``pid`` and its live descendants."""
    tree, stack = set(), [pid]
    while stack:
        current = stack.pop()
        if current not in tree:
            tree.add(current)
            stack.extend(_children(current))
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of ``pid`` and its live descendants."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_segments(pids) -> list[str]:
    """``/dev/shm`` entries the serving tier named after one of ``pids``."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    tags = tuple(f"rpool{pid}_" for pid in pids)
    return [name for name in names if name.startswith(tags)]


# ----------------------------------------------------------------------
# What a workload hands back to run.py.
# ----------------------------------------------------------------------
class InvalidRun(RuntimeError):
    """The harness, not the program, failed to keep to the workload (its
    load generator fell behind); such a run is not recorded."""


class Outcome:
    """Metrics, per-layer figures, report lines and failures of one run."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def report(self, name: str, value, unit: str, note: str = "") -> None:
        """One human-readable metric line (printed before the JSON)."""
        shown = "n/a" if value is None else f"{value:.6g}"
        self.lines.append(f"  {name:<28} {shown:>12} {unit:<7} {note}".rstrip())

    def report_timing(self, name: str, values, unit: str = "ms",
                      scale: float = 1e3) -> None:
        """Median and highest supported tail percentile of a timing sample."""
        summary = pb_stats.summarize(values)
        n = summary["n"]
        if not n:
            self.report(name, None, unit, "(no samples)")
            return
        self.report(f"{name}.p50", summary["p50"] * scale, unit, f"(n={n})")
        if summary["tail_p"] is None:
            self.report(f"{name}.tail", None, unit,
                        f"(n={n}: under {2 * pb_stats.MIN_BEYOND} samples)")
        else:
            self.report(f"{name}.p{summary['tail_p']:g}",
                        summary["tail"] * scale, unit, f"(n={n})")

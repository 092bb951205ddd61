"""Host and source metadata recorded with every result, plus small statistics.

Two results are only comparable when they ran on the same kind of host with
the same BLAS threading, so every result records the CPU model and count,
the Python/numpy/scipy versions, the BLAS library, the BLAS thread count the
run pinned, and which source it measured: the git commit plus a dirty flag
when the checkout is a git work tree, and always a digest of ``src/``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
from pathlib import Path

#: BLAS/OpenMP threads every benchmark process is pinned to.  Training is no
#: faster with two threads than with one on a 2-core host but burns twice the
#: CPU, and one thread keeps both sides of a comparison on equal terms.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_environment(root: Path) -> dict:
    """The environment every benchmark process runs under.

    Pins the BLAS thread count, puts ``src/`` on the import path and drops
    the repository's own tuning/fault knobs so a stray shell export cannot
    change what is measured.
    """
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    for name in ("REPRO_FAULTS", "REPRO_WORKERS", "REPRO_COMPILE_CACHE"):
        env.pop(name, None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_library() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except Exception:  # numpy without the dict form of show_config
        return "unknown"


def _git(root: Path, *args: str) -> "str | None":
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over every file under ``src/`` (relative path and content)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_metadata(root: Path) -> dict:
    """Everything needed to tell a regression from a different machine."""
    import numpy as np
    import scipy

    commit = dirty = None
    toplevel = _git(root, "rev-parse", "--show-toplevel")
    if toplevel and Path(toplevel).resolve() == root.resolve():
        commit = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_library(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "dirty": dirty,
        "source_digest": source_digest(root),
    }


#: Metadata fields that must agree before two result sets are comparable.
HOST_FIELDS = ("cpu_model", "cpu_count", "python", "numpy", "scipy", "blas", "blas_threads")


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def median(values) -> float:
    return float(statistics.median(values))


def p95(values) -> float:
    """Interpolated 95th percentile (``statistics.quantiles``, inclusive)."""
    return float(statistics.quantiles(values, n=20, method="inclusive")[-1])


def spread(values) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else float("inf")

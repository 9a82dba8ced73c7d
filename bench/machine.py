"""Description of the machine and software a result was measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread.  In trial runs on a 2-core machine shared with other
# tenants, a second thread made the dense desk instances 2.4 times slower
# (the threads spin-wait for each other when a core is busy elsewhere) and
# doubled the run-to-run spread of the LSMR loop.
BLAS_THREADS = 1


def available_cores() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    return caches


def _memory_mb() -> int | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) // 1024
    return None


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {}


def _git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(root: Path) -> str:
    """sha256 over the library sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "lsbe").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_block(root: Path) -> dict:
    import numpy as np
    import scipy

    nproc = available_cores()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "memory_mb": _memory_mb(),
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "note": (f"one benchmark process on a {nproc}-core machine that "
                 "other tenants share; no machine setting (frequency, "
                 "affinity, caches, huge pages) was changed for the runs"),
    }

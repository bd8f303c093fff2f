"""The machine record written with every result, and the pinned environment."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

# BLAS/OpenMP pools are pinned to one thread so that a run measures
# plapreg's own parallelism (PLAPREG_THREADS) and nothing else.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_env(root: Path) -> dict:
    """Environment for workload processes: this checkout's source, pinned threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PLAPREG_THREADS"] = str(nproc())
    return env


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> list:
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        out.append({k: _read(str(index / k)) for k in ("level", "type", "size")})
    return out


def _blas(module: str) -> str | None:
    try:
        mod = __import__(module)
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, KeyError, TypeError, AttributeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository whose top level is root, if root is one."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(root: Path) -> str:
    """sha256 over src/plapreg/*.py, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "plapreg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(root: Path, env: dict) -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numpy_blas": _blas("numpy"),
        "scipy_blas": _blas("scipy"),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "threads": {k: env[k] for k in (*THREAD_VARS, "PLAPREG_THREADS")},
    }

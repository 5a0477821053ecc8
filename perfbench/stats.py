"""Percentiles, fingerprint, calibration and memory readings."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least MIN_BEYOND beyond ``q``."""
    return round(n * (100.0 - q) / 100.0, 9) >= MIN_BEYOND


def tail(values) -> tuple[str, float]:
    """The highest supported tail percentile, as ``(label, value)``.

    With too few samples for any percentile in :data:`TAIL_PERCENTILES`
    the maximum is reported instead, labelled ``max``.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        if supported(n, q):
            return f"p{q:g}", percentile(values, q)
    return "max", max(values)


def median(values) -> float:
    return float(statistics.median(values))


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fingerprint() -> dict:
    """Machine and library identity recorded with every result."""
    import numpy as np

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": cpu_count(),
        "cpu_model": model,
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": sys.version.split()[0],
    }


def gemm_calibration(reps: int = 50, n: int = 512) -> tuple[float, float]:
    """``(median, min)`` seconds of one fixed ``n x n`` float64 GEMM."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    out = np.empty((n, n))
    np.matmul(a, b, out=out)  # warm the BLAS threads and pages
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return median(times), min(times)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")

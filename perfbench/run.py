"""End-to-end benchmark of the adapt-and-serve path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-5gc --seed 0 --seconds 10 --trace 0

Workloads: ``fit-5gc``, ``drift-hop-442``, ``serve-small``, ``serve-bulk``
(see ``perfbench/catalog.py`` for why each exists).  With ``--trace 0`` the
run measures the end-to-end metrics; with ``--trace 1`` it wraps the public
calls of each layer in spans and reports per-layer self times instead.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The run builds its inputs from ``--seed``, checks every output for
correctness, writes only below ``.perfbench_tmp/`` in the checkout (removed
on exit) and stops every process it starts.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

# One BLAS/OpenMP thread in this process and every child (set-up replicas,
# the serve daemon), set before numpy loads.  On a small shared host a
# second BLAS thread spin-waits on a core that the daemon, the load
# generator or a neighbour holds, and a 512x512 product then swings from
# ~3 ms to ~24 ms between runs: that measures the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
#: set-ups measured per run: this process plus this many child processes
SETUP_REPLICAS = 2
SETUP_TIMEOUT = 60.0


class Context:
    """What a workload needs to know about this run."""

    def __init__(self, args, tmp: Path) -> None:
        from stats import cpu_count

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.checkout = CHECKOUT
        self.src = SRC
        self.tmp = tmp
        self.nproc = cpu_count()

    def log(self, message: str) -> None:
        print(f"[{self.workload}] {message}", file=sys.stderr, flush=True)


def _workload(name: str):
    """(setup, measure, teardown, check) of a workload."""
    if name == "fit-5gc":
        import wl_fit

        return wl_fit.setup, wl_fit.measure, None, None
    if name == "drift-hop-442":
        import wl_hop

        return wl_hop.setup, wl_hop.measure, None, None
    import wl_serve

    measure = wl_serve.measure_small if name == "serve-small" \
        else wl_serve.measure_bulk
    return wl_serve.setup, measure, wl_serve.teardown, wl_serve.check


def _setup_replica(args) -> float:
    """Time one complete set-up in a fresh child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=str(CHECKOUT), capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up replica failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_fs_")}
    except OSError:
        return set()


def _remove_new_shm(before: set[str]) -> None:
    for name in _shm_segments() - before:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass


def run(args) -> int:
    tmp_root = CHECKOUT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    shm_before = _shm_segments()
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()  # only when no other run is using it
        except OSError:
            pass
        _remove_new_shm(shm_before)


def _run(args, tmp: Path) -> int:
    import catalog
    from stats import fingerprint, gemm_calibration, median, peak_rss_mb, tail

    ctx = Context(args, tmp)
    setup, measure, teardown, check = _workload(args.workload)
    state = setup(ctx)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        if teardown is not None:
            teardown(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    daemon_rss = 0.0
    try:
        result = measure(state, ctx)
        if teardown is not None:
            daemon_rss = state["daemon"].peak_rss_mb()
    finally:
        if teardown is not None:
            teardown(state)
    # failed: operations that did not complete (errors, timeouts, hops not
    # promoted) or whose output is wrong; only wrong outputs clear correct
    attempted, failed = result["attempted"], result["failed"]
    wrong = result.get("wrong", 0)
    if check is not None:
        bad = check(state, ctx)
        failed += bad
        wrong += bad
    rss = peak_rss_mb() + daemon_rss

    latencies = result.get("op_latencies") or []
    correct = wrong == 0 and bool(latencies)
    lines = [f"workload {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    if args.trace:
        from spans import EPSILON_S

        layers = result.get("layers") or {}
        residual = layers.get("trace.residual_s", 0.0)
        if residual > EPSILON_S:
            ctx.log(f"self times miss the op total by {residual:.3g} s "
                    f"(epsilon {EPSILON_S:g} s)")
            correct = False
        metrics = {}
        for name, unit, _, _ in catalog.PER_LAYER:
            value = float(layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"layer {name} = {value:.6g} {unit}")
        lines.append(f"epsilon trace.residual_s <= {EPSILON_S:g} s")
    else:
        setups = [setup_s] + [_setup_replica(args)
                              for _ in range(SETUP_REPLICAS)]
        if not latencies:
            ctx.log("no operation succeeded")
            latencies = [0.0]
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "p50_ms": {"value": 1e3 * median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
        for name, m in metrics.items():
            lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
        label, tail_value = tail(latencies)
        lines.append(f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s; "
                     f"tail_ms is {label} of {len(latencies)} samples")
        figures = dict(result.get("figures", {}))
        figures["tail_ms"] = (1e3 * tail_value, "ms")
        figures["mean_ms"] = (1e3 * sum(latencies) / len(latencies), "ms")
        figures["failed_frac"] = (failed / attempted if attempted else 1.0,
                                  "share")
        figures["setup_s"] = (metrics["setup_s"]["value"], "s")
        figures["peak_rss_mb"] = (rss, "MiB")
        for name, (value, unit) in figures.items():
            lines.append(f"figure {name} = {value:.6g} {unit}")
    lines.append("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    gemm_median, gemm_min = gemm_calibration()
    lines.append(f"calibration gemm512_ms median = {1e3 * gemm_median:.4f} ms"
                 f" min = {1e3 * gemm_min:.4f} ms")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-5gc", "drift-hop-442", "serve-small",
                                 "serve-bulk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

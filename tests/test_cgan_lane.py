"""The cGAN generator lane: bit-identity, failure handling and hygiene.

``ConditionalGAN.fit`` runs the generator half of every minibatch in a
forked lane process when the host and the fit size allow (see
``repro/nn/fused.py``).  The lane must be an optimization only:

- a lane fit equals an inline fit bit for bit (parameters, batch-norm
  running statistics, ``history_``, ``generate()`` and grad-norm hook
  logs), at float32 and float64, conditional and NoCond, one and two D
  steps, with a remainder batch, and leaves both dropout RNGs in the
  inline fit's state (the lane draws the dropout masks);
- a failing or dying lane raises :class:`TrainingLaneError` in the parent
  within a bounded time, and no fit leaves a child process or a changed
  OpenBLAS thread count behind;
- a fit started while another thread is alive trains inline, at the
  process's BLAS thread count; any other fit trains at one BLAS thread,
  so a float64 inline fit does not depend on ``OPENBLAS_NUM_THREADS``.

Each side runs in a fresh interpreter, so that no thread left alive by
another test can change the path taken.  The inline side is pinned to one
CPU (which also gives OpenBLAS one thread, as the lane has) and so cannot
fork; the lane side lowers the size rule to fork even for these small
fits, except for the ``fit5gc`` shape, which forks under the shipped rule.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_COMMON = r"""
import hashlib
import json
import os
import sys

MODE = sys.argv[1]
if MODE == "inline":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import numpy as np

import repro.nn.fused as fused
from repro.gan.cgan import ConditionalGAN
from repro.obs.hooks import HistoryHook


def data(n, n_inv, nv, nc, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, n_inv)), np.tanh(rng.normal(size=(n, nv))),
            np.eye(nc)[rng.integers(0, nc, n)])


def dropout_states(gan):
    return [layer._rng.bit_generator.state
            for layer in gan.discriminator_.layers
            if type(layer).__name__ == "Dropout"]


def digest(gan, hook):
    h = hashlib.sha256()
    for net in (gan.generator_, gan.discriminator_):
        for key, value in sorted(net.state_dict().items()):
            h.update(key.encode())
            h.update(np.ascontiguousarray(value).tobytes())
    h.update(json.dumps(gan.history_).encode())
    X = np.linspace(-1.0, 1.0, 7 * gan.n_invariant_).reshape(7, -1)
    h.update(gan.generate(X).tobytes())
    h.update(gan.generate(X, n_draws=3, random_state=5).tobytes())
    if hook is not None:
        logs = [{k: v for k, v in e.items() if k != "seconds"}
                for e in hook.epochs]
        h.update(json.dumps(logs).encode())
    return h.hexdigest()
"""

_EQUIVALENCE_SCRIPT = _COMMON + r"""
SMALL = dict(n=96, n_inv=12, nv=5, nc=4)  # batches of 64 and 32 rows
CONFIGS = {}
for dtype in ("float32", "float64"):
    for cond in (True, False):
        for d_steps in (1, 2):
            CONFIGS[f"{dtype}-{'cond' if cond else 'nocond'}-d{d_steps}"] = (
                SMALL, dict(noise_dim=3, hidden_size=16, epochs=3,
                            batch_size=64, dtype=dtype, conditional=cond,
                            d_steps=d_steps),
                d_steps == 2)  # grad-norm hook on the two-step fits
CONFIGS["fit5gc-float32"] = (
    dict(n=800, n_inv=92, nv=19, nc=16),
    dict(noise_dim=8, hidden_size=128, epochs=2, batch_size=64,
         dtype="float32"), False)

shipped = (fused.LANE_MIN_UPDATE_WORK, fused.LANE_MIN_FIT_WORK)
out = {}
for name, (shape, kw, with_hook) in CONFIGS.items():
    small = not name.startswith("fit5gc")
    if small:
        fused.LANE_MIN_UPDATE_WORK = fused.LANE_MIN_FIT_WORK = 0
    else:
        fused.LANE_MIN_UPDATE_WORK, fused.LANE_MIN_FIT_WORK = shipped
    X_inv, X_var, y = data(**shape)
    hook = HistoryHook(grad_norms=True) if with_hook else None
    gan = ConditionalGAN(random_state=11, **kw).fit(
        X_inv, X_var, y if kw.get("conditional", True) else None, hooks=hook)
    out[name] = {"lane": gan.train_lane_, "digest": digest(gan, hook),
                 "dropout_rng": dropout_states(gan)}
print(json.dumps(out))
"""

_GOLDEN_SCRIPT = _COMMON + r"""
import ctypes

def blas_core():
    for path in sorted({line.split(None, 5)[5].strip()
                        for line in open("/proc/self/maps")
                        if "openblas" in line.lower()
                        and len(line.split(None, 5)) == 6}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"

from numpy._core._multiarray_umath import __cpu_features__ as features

X_inv, X_var, y = data(n=90, n_inv=12, nv=5, nc=4)  # batches 32, 32, 26
out = {"key": "{}|avx512_skx={}|numpy={}".format(
    blas_core(), bool(features.get("AVX512_SKX")),
    ".".join(np.__version__.split(".")[:2]))}
for dtype in ("float32", "float64"):
    gan = ConditionalGAN(noise_dim=3, hidden_size=16, epochs=4,
                         batch_size=32, dtype=dtype, random_state=7).fit(
        X_inv, X_var, y)
    assert not gan.train_lane_
    out[dtype] = digest(gan, None)
print(json.dumps(out))
"""

_THREADS_SCRIPT = _COMMON + r"""
# the fit-5gc shape without the condition: D input 92 + 19 = 111 wide, where
# gh1 @ W1.T at float64 differs in the last bits between 1 and 2 BLAS
# threads; 21 updates stay under the shipped size rule, so the fit is inline
X_inv, X_var, _ = data(n=400, n_inv=92, nv=19, nc=16)
threads = [get() for get, _ in fused.blas_thread_controls()]
gan = ConditionalGAN(noise_dim=8, hidden_size=128, epochs=3, batch_size=64,
                     dtype="float64", conditional=False,
                     random_state=11).fit(X_inv, X_var)
print(json.dumps({"lane": gan.train_lane_, "threads": threads,
                  "after": [get() for get, _ in fused.blas_thread_controls()],
                  "digest": digest(gan, None)}))
"""

_HYGIENE_SCRIPT = _COMMON + r"""
import glob
import multiprocessing
import signal
import threading
import time

from repro.nn.fused import FusedCGANTrainer, TrainingLaneError
from repro.obs.hooks import TrainingHook

shipped = (fused.LANE_MIN_UPDATE_WORK, fused.LANE_MIN_FIT_WORK)
fused.LANE_MIN_UPDATE_WORK = fused.LANE_MIN_FIT_WORK = 0
X_inv, X_var, y = data(n=96, n_inv=12, nv=5, nc=4)
KW = dict(noise_dim=3, hidden_size=16, epochs=50, batch_size=32,
          random_state=3)


def blas_threads():
    return [get() for get, _ in fused.blas_thread_controls()]


def children():
    kids = [p.pid for p in multiprocessing.active_children()]
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        kids += [int(pid) for pid in open(path).read().split()]
    return sorted(set(kids))


class ThreadsSeen(TrainingHook):
    def __init__(self):
        self.seen = set()

    def on_epoch_end(self, epoch, logs):
        self.seen.update(blas_threads())


def fit(hooks=None, **extra):
    return ConditionalGAN(**{**KW, **extra}).fit(X_inv, X_var, y,
                                                 hooks=hooks)


before = blas_threads()
out = {"blas_before": before}
out["lane_taken"] = fit().train_lane_
out["after_fit"] = {"children": children(), "blas": blas_threads()}

def kill(self, *a):
    os.kill(os.getpid(), signal.SIGKILL)


# the lane draws the first update's dropout masks as it starts, so a lane
# killed in its first mask draw dies while the parent waits for masks
for name, method, fault in (
    ("raises", "_g_backward", lambda self, *a: (_ for _ in ()).throw(
        RuntimeError("injected G backward fault"))),
    ("dies", "_g_backward", kill),
    ("dies_drawing_masks", "_draw_masks", kill),
):
    original = getattr(FusedCGANTrainer, method)
    setattr(FusedCGANTrainer, method, fault)
    t0 = time.perf_counter()
    try:
        fit()
        error = None
    except TrainingLaneError as exc:
        error = str(exc)
    except Exception as exc:
        error = f"untyped {type(exc).__name__}: {exc}"
    finally:
        setattr(FusedCGANTrainer, method, original)
    out[name] = {"error": error, "seconds": time.perf_counter() - t0,
                 "children": children(), "blas": blas_threads()}

release = threading.Event()
worker = threading.Thread(target=release.wait)
worker.start()
try:
    hook = ThreadsSeen()
    out["with_thread_lane"] = fit(hook, epochs=2).train_lane_
    out["with_thread_blas"] = sorted(hook.seen)
finally:
    release.set()
    worker.join(10.0)
assert not worker.is_alive()
out["after_thread_lane"] = fit(epochs=2).train_lane_

# too small for the shipped size rule: an inline fit, pinned and restored
fused.LANE_MIN_UPDATE_WORK, fused.LANE_MIN_FIT_WORK = shipped
hook = ThreadsSeen()
out["inline_lane"] = fit(hook, epochs=2).train_lane_
out["inline"] = {"during": sorted(hook.seen), "blas": blas_threads()}
print(json.dumps(out))
"""


def _run(script: str, mode: str, *, blas_env: str | None = "1") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
        if blas_env is not None:
            env[var] = blas_env
    proc = subprocess.run([sys.executable, "-c", script, mode], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


needs_two_cpus = pytest.mark.skipif(
    not sys.platform.startswith("linux") or _usable_cpus() < 2,
    reason="the generator lane needs Linux and two usable CPUs",
)


@pytest.fixture(scope="module")
def inline_digests():
    return _run(_EQUIVALENCE_SCRIPT, "inline")


@pytest.fixture(scope="module")
def lane_digests():
    return _run(_EQUIVALENCE_SCRIPT, "lane")


@needs_two_cpus
class TestLaneEqualsInline:
    def test_every_config_is_bit_identical(self, inline_digests,
                                           lane_digests):
        lane = lane_digests
        assert set(lane) == set(inline_digests)
        assert not any(r["lane"] for r in inline_digests.values())
        assert all(r["lane"] for r in lane.values()), lane
        diverged = [name for name in lane
                    if lane[name]["digest"] != inline_digests[name]["digest"]]
        assert diverged == []

    def test_dropout_rngs_end_where_inline_leaves_them(self, inline_digests,
                                                       lane_digests):
        lane = lane_digests
        assert all(r["lane"] for r in lane.values()), lane
        diverged = [name for name in lane
                    if lane[name]["dropout_rng"]
                    != inline_digests[name]["dropout_rng"]]
        assert diverged == []


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="pins the reference run to one CPU")
class TestGoldenParameters:
    """sha256 of a cGAN after 12 fused minibatch updates: parameters,
    batch-norm statistics, ``history_`` and ``generate()`` output.

    Recorded per OpenBLAS kernel, numpy SIMD level and numpy version (the
    bits of a product or a ``tanh`` depend on them); elsewhere the test
    skips, and ``test_nn_engine``'s comparison with ``oracles/nn_reference.py``
    still covers float64.
    """

    GOLDEN = {
        "SkylakeX|avx512_skx=True|numpy=2.4": {
            "float32": "84c3554d01f753c5d33d2b2470fbc9ca"
                       "129c90a9e86473fdba381eb27ed95169",
            "float64": "5d4b5f266634d1819419c67321eee442"
                       "e36c4d54233edd225b058127a426e8f9",
        },
    }

    def test_parameters_match_the_recorded_digests(self):
        got = _run(_GOLDEN_SCRIPT, "inline")
        golden = self.GOLDEN.get(got["key"])
        if golden is None:
            pytest.skip(f"no golden digests for {got['key']}")
        assert {dt: got[dt] for dt in golden} == golden


@needs_two_cpus
class TestFloat64ThreadIndependence:
    def test_inline_float64_fit_is_equal_at_one_and_two_blas_threads(self):
        one = _run(_THREADS_SCRIPT, "threads", blas_env="1")
        two = _run(_THREADS_SCRIPT, "threads", blas_env="2")
        assert not one["lane"] and not two["lane"]
        assert set(one["threads"]) == {1} and set(two["threads"]) == {2}
        assert one["after"] == one["threads"]
        assert two["after"] == two["threads"]
        assert one["digest"] == two["digest"]


@needs_two_cpus
class TestLaneHygiene:
    @pytest.fixture(scope="class")
    def report(self):
        # OpenBLAS keeps its default thread count here: the lane must pin
        # it to one thread and put the default back
        return _run(_HYGIENE_SCRIPT, "lane", blas_env=None)

    def test_normal_fit_forks_and_leaves_nothing_behind(self, report):
        assert report["lane_taken"] is True
        assert report["after_fit"] == {"children": [],
                                       "blas": report["blas_before"]}

    @pytest.mark.parametrize("fault", ["raises", "dies",
                                       "dies_drawing_masks"])
    def test_lane_fault_raises_a_typed_error_in_bounded_time(self, report,
                                                              fault):
        result = report[fault]
        assert result["error"] is not None
        assert not result["error"].startswith("untyped"), result["error"]
        if fault == "raises":
            assert "injected G backward fault" in result["error"]
        assert result["seconds"] < 30.0
        assert result["children"] == []
        assert result["blas"] == report["blas_before"]

    def test_fit_with_another_thread_alive_runs_inline(self, report):
        assert report["with_thread_lane"] is False
        assert report["after_thread_lane"] is True

    def test_fit_with_another_thread_alive_keeps_the_blas_threads(self,
                                                                  report):
        assert report["with_thread_blas"] == sorted(set(report["blas_before"]))

    def test_inline_fit_pins_one_blas_thread_and_restores(self, report):
        assert report["inline_lane"] is False
        assert report["inline"] == {"during": [1],
                                    "blas": report["blas_before"]}

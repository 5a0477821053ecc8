"""Straight-line fused training kernel for the cGAN minibatch update.

The generic engine in :mod:`repro.nn.layers` removes per-batch allocations,
but at the paper's network sizes (hidden 128–256, batch 64) the remaining
cost is *dispatch*: ~40 layer-method calls, ~150 workspace lookups and ~30
per-parameter optimizer updates per minibatch, each wrapping numpy work
that takes only a few microseconds.  This module flattens the cGAN
minibatch update into two straight-line halves of ``out=`` ufunc calls over
buffers bound once per batch size:

- the **generator half**: every G forward, the G backward and G's Adam
  step;
- the **discriminator half**: every D step, the D forward/backward of the
  generator step (down to the input gradient) and every draw from the
  training RNG.

The halves run as a pipeline (see *Two processes* below): in a forked
generator *lane* process next to the discriminator half when the machine
has a spare CPU and the fit is large enough, otherwise in one process with
the generator half called in place.  Both are the same schedule, and
both are bit-identical to the serial update.  The kernel also adds
structural optimizations that are exact (bit-identical) rather than
approximate:

- **flat-parameter Adam** — all parameters (and gradients) of a network are
  re-pointed into views of one contiguous vector, so an Adam step is ~12
  ufunc calls over a single array instead of ~12 per parameter.  Adam is
  elementwise, so the update per element is unchanged.
- **dead-gradient skipping** — the input gradient of each network's first
  ``Dense`` is never used, and the discriminator's *parameter* gradients
  during the generator update are discarded by ``zero_grad`` without being
  read.  The kernel simply does not compute them (and therefore needs no
  ``zero_grad`` at all: every gradient it keeps is fully overwritten).
- **batch-norm mean reuse** — ``np.var(x, axis=0)`` internally recomputes
  the mean; the kernel computes ``mean((x - mean)**2, axis=0)`` from the
  centered matrix it needs anyway for ``x_hat``.  numpy's ``_var`` performs
  exactly these operations, so the result is bit-identical.  Means and sums
  run as ``np.add.reduce`` plus, for a mean, ``true_divide`` by the ``intp``
  row count — the two ops of numpy's ``_mean`` without its dispatch — into
  vectors the trainer owns.
- **LeakyReLU scale masks** — ``where(x > 0, x, slope * x)`` becomes a
  single multiply by a precomputed mask ``sm ∈ {slope, 1.0}``.  This is
  exact because ``x * 1.0 == x`` bitwise and ``(1.0 - slope) + slope``
  rounds to exactly ``1.0`` for the paper's slope of 0.2 (asserted at
  construction).  It replaces the six masked-``copyto`` forward ops and six
  backward ops per minibatch — the most expensive elementwise calls — with
  plain multiplies, and lets most activations update in place, shrinking
  the per-minibatch working set to fit cache.  The scale and dropout masks
  are built by copying the boolean mask into a float buffer and
  multiplying by a constant of the compute dtype: ``1 * c`` and ``0 * c``
  are exact, and a same-dtype multiply is several times cheaper than the
  mixed bool-by-float ufunc it replaces.

Every remaining ufunc sequence mirrors :mod:`repro.nn.layers` /
:mod:`repro.nn.optimizers` operation for operation, which in turn mirror
the frozen baselines in ``tests/oracles/nn_reference.py``; the regression tests
assert the kernel reproduces the reference training trajectory bit for bit.

Two processes
-------------
Per minibatch with ``d_steps = k`` the parent gathers the rows, draws the
``k + 1`` noise blocks from the training RNG in the serial order and
publishes them; it then runs each D step on real data, waits for the fake
of that step, runs the D step on the fake, and finally waits for the last
fake and runs the generator step's D forward, loss and input-gradient
backward, and publishes that gradient.  The lane runs the ``k + 1`` G
forwards, publishing each fake as it is made (the activations of the last
stay for the backward), draws the next update's dropout masks, waits for
the gradient, then runs the G backward and G's Adam step.  Every op keeps
exactly the inputs of the serial update:

- G's parameters change only at its Adam step, at the end of the minibatch;
- the BN running statistics are updated in the same noise order;
- no D step reads G state;
- the dropout masks read no parameter: each dropout RNG draws one block
  per D forward, in the forward order, whichever process draws it.  The
  lane draws them from its fork-time copy of both dropout RNGs, one update
  ahead, in the window where it would otherwise wait for the gradient;
  the inline lane draws each forward's masks at its point of use.

The lane is forked before the first minibatch, and is told the row count
of every update (the last minibatch of an epoch may be short), so that it
can shape masks before the parent reaches that update.  Inputs, fakes, the
dropout masks, the input gradient and the final result block live in
anonymous ``MAP_SHARED`` ``mmap`` views made before the fork (no
``/dev/shm`` names, no resource tracker); hand-offs are fork-context
semaphores, polled for a few milliseconds and then awaited with a timeout
that checks the peer is alive, so a dead or failing lane raises
:class:`TrainingLaneError` instead of hanging.  At the end the lane writes
G's state (parameters, gradients, Adam moments and step, both BNs' running
statistics) and the states of both dropout bit generators into the result
block and the parent copies them in, so the parent's dropout RNGs end
where an inline fit leaves them.

OpenBLAS is pinned to one thread for the whole fit, on both paths, and
restored after: with the lane, a second BLAS thread per process spin-waits
on the CPU the other half needs; inline, some float64 products
(``gh1 @ W1.T`` at D input widths 100-127) differ in the last bits between
one and two BLAS threads, and the pin makes a fit independent of the
thread count.  The thread count is a process-wide setting, so it is left
alone while another Python thread is alive: inline training inside the
serve daemon runs at the daemon's thread count.

Training runs inline (:func:`_lane_allowed`) on a single usable CPU, while
another Python thread is alive (forking a threaded process is unsafe: the
serve daemon and an adapt controller inside it train inline), inside a
``multiprocessing`` child (FS and ``prebuild`` pool workers), without the
``fork`` start method, without a loadable OpenBLAS thread control, and
when the fit is too small to pay for the fork (:data:`LANE_MIN_UPDATE_WORK`,
:data:`LANE_MIN_FIT_WORK`).

The kernel is architecture-specific by design: it accepts exactly the
CTGAN-style generator (Dense–BN–ReLU ×2 → Dense–Tanh) and discriminator
(Dense–LeakyReLU–Dropout ×2 → Dense–Sigmoid) built by
:class:`repro.gan.cgan.ConditionalGAN`.  Everything else keeps using the
generic layer engine.
"""


from __future__ import annotations

import ctypes
import mmap
import multiprocessing
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager

import numpy as np

from repro.nn.layers import (
    BatchNorm1d,
    Dense,
    Dropout,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import BinaryCrossEntropy
from repro.utils.errors import ReproError, ValidationError


def consolidate(layers) -> tuple[np.ndarray, np.ndarray, list]:
    """Re-point all params/grads of ``layers`` into two flat vectors.

    Returns ``(flat_params, flat_grads, segments)`` where ``segments`` is a
    list of 1-D views (one per parameter, in optimizer iteration order).
    After this call ``layer.params[key]`` / ``layer.grads[key]`` are
    contiguous 2-D/1-D views of the flat vectors: ``state_dict`` round-trips
    and the generic layer engine keep working unchanged, while elementwise
    optimizer math can run over the single flat array.
    """
    entries = []
    for layer in layers:
        for key in layer.params:
            entries.append((layer, key))
    if not entries:
        raise ValidationError("consolidate() needs at least one parameter")
    dt = entries[0][0].params[entries[0][1]].dtype
    total = sum(layer.params[key].size for layer, key in entries)
    flat_p = np.empty(total, dtype=dt)
    flat_g = np.zeros(total, dtype=dt)
    segments = []
    offset = 0
    for layer, key in entries:
        arr = layer.params[key]
        end = offset + arr.size
        pview = flat_p[offset:end].reshape(arr.shape)
        pview[...] = arr
        layer.params[key] = pview
        layer.grads[key] = flat_g[offset:end].reshape(arr.shape)
        segments.append(flat_p[offset:end])
        offset = end
    return flat_p, flat_g, segments


class FlatAdam:
    """Adam over one flat parameter vector (see :func:`consolidate`).

    Performs exactly the per-element operations of
    :class:`repro.nn.optimizers.Adam` — Adam is elementwise, so running the
    same ufunc chain over the concatenation of all parameters produces
    bit-identical updates — in ~12 ufunc calls total per step.
    """

    def __init__(self, flat_params, flat_grads, *, lr, beta1=0.9,
                 beta2=0.999, eps=1e-8, weight_decay=0.0) -> None:
        self.p = flat_params
        self.g = flat_grads
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self._t = 0
        self._m = np.zeros_like(flat_params)
        self._v = np.zeros_like(flat_params)
        self._num = np.empty_like(flat_params)
        self._den = np.empty_like(flat_params)
        self._tmp = np.empty_like(flat_params)

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        m, v, g = self._m, self._v, self.g
        num, den, tmp = self._num, self._den, self._tmp
        m *= b1
        np.multiply(g, 1 - b1, out=tmp)
        m += tmp
        v *= b2
        np.square(g, out=tmp)
        tmp *= 1 - b2
        v += tmp
        np.divide(m, bias1, out=num)
        np.divide(v, bias2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(num, den, out=num)
        if self.weight_decay:
            np.multiply(self.p, self.weight_decay, out=tmp)
            num += tmp
        num *= self.lr
        self.p -= num


def _expect(layer, cls, what):
    if not isinstance(layer, cls):
        raise ValidationError(
            f"FusedCGANTrainer: expected {cls.__name__} at {what}, "
            f"got {type(layer).__name__}"
        )
    return layer


class TrainingLaneError(ReproError, RuntimeError):
    """The generator lane of a pipelined cGAN fit raised or died."""


#: Size rule of the generator lane.  The work of one update is its row count
#: times the parameter count of G and D (about the multiply-adds of one
#: forward through each network); a fit forks only when one update has at
#: least LANE_MIN_UPDATE_WORK of it and the whole fit at least
#: LANE_MIN_FIT_WORK.  Below the first the lane lost or tied at every fit
#: length (the 5GC shape at hidden 8, 32 and 64: 0.14M-1.6M per update);
#: below the second the fork, the lane's first page faults and the join
#: (5-10 ms) are not paid back (hidden 128, 4.2M per update, broke even at
#: 13 updates and won from 26).  Measured on a 2-vCPU x86 host at float32, see EXPERIMENTS.md
#: "cGAN training in two processes".
LANE_MIN_UPDATE_WORK = 3_000_000
LANE_MIN_FIT_WORK = 100_000_000

#: semaphore polls (``acquire(False)``, ~0.1 µs each) before a blocking
#: wait: a hand-off inside one update arrives within about a millisecond
_SPINS = 20_000
#: blocking-wait slice (s) between liveness checks of the peer process
_POLL_S = 0.05
#: how long (s) a lane may take to exit once told to stop
_JOIN_S = 10.0
_MSG_BYTES = 1024

# control words of the shared block (_RNG_LEN and the word after it hold
# the pickled size of each dropout RNG state), and the parent's commands
_CMD, _WANT, _ERR, _MSGLEN, _ADAM_T, _RNG_LEN = range(6)
_RUN, _STOP, _ABORT = 1, 2, 3


def _lane_allowed(work: int, updates: int) -> bool:
    """Whether a fit of ``updates`` updates of ``work`` each may fork a lane.

    Not when the fit is too small, on one usable CPU, while another Python
    thread is alive (forking a threaded process is unsafe), inside a
    ``multiprocessing`` child, or without the ``fork`` start method.  The
    OpenBLAS thread control is looked up separately
    (:func:`_pinnable_blas_controls`).
    """
    if work < LANE_MIN_UPDATE_WORK or work * updates < LANE_MIN_FIT_WORK:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return (cpus >= 2 and threading.active_count() == 1
            and multiprocessing.parent_process() is None
            and "fork" in multiprocessing.get_all_start_methods())


#: OpenBLAS thread-count function names ("{}" is get or set)
_BLAS_THREAD_NAMES = tuple(
    f"{prefix}openblas_{{}}_num_threads{suffix}"
    for prefix in ("scipy_", "") for suffix in ("64_", "_64", "")
)


def blas_thread_controls() -> list:
    """``(get, set)`` thread-count functions of each loaded OpenBLAS.

    Looked up with ``ctypes`` in the OpenBLAS shared objects mapped into
    this process (numpy's own, and scipy's once scipy is loaded); empty
    without ``/proc`` or with another BLAS.
    """
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return []
    controls = []
    for path in sorted(mapped):
        name = os.path.basename(path)
        if "openblas" not in name.lower() or ".so" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _BLAS_THREAD_NAMES:
            get = getattr(lib, pattern.format("get"), None)
            set_ = getattr(lib, pattern.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


_blas_cache: tuple[int, list] = (-1, [])


def _pinnable_blas_controls() -> list:
    """:func:`blas_thread_controls`, for a fit that may pin BLAS threads.

    Empty while another Python thread is alive: the thread count is a
    process-wide setting, and that thread may be running BLAS at its own.
    The scan is cached and redone only after a module import, since a
    further OpenBLAS is mapped by importing the extension that links it.
    """
    global _blas_cache
    if threading.active_count() != 1:
        return []
    modules, controls = _blas_cache
    if modules != len(sys.modules):
        controls = blas_thread_controls()
        _blas_cache = (len(sys.modules), controls)
    return controls


def _spin(sem) -> bool:
    acquire = sem.acquire
    for _ in range(_SPINS):
        if acquire(False):
            return True
    return False


class _SharedBlock:
    """Named numpy views carved out of one anonymous shared ``mmap``.

    Made before the fork, the mapping is shared by parent and lane; it has
    no name, so nothing outlives the two processes.
    """

    def __init__(self, specs) -> None:
        layout, size = [], 0
        for name, shape, dtype in specs:
            dtype = np.dtype(dtype)
            size = -(-size // 64) * 64
            count = int(np.prod(shape))
            layout.append((name, shape, dtype, size, count))
            size += count * dtype.itemsize
        self._mm = mmap.mmap(-1, size)
        for name, shape, dtype, offset, count in layout:
            view = np.frombuffer(self._mm, dtype, count, offset)
            setattr(self, name, view.reshape(shape))


class _InlineLane:
    """The generator half called in place: the serial form of the schedule.

    Each D forward's dropout masks are drawn when it asks for them.
    """

    def __init__(self, trainer) -> None:
        self._trainer = trainer
        self._slots: dict[tuple, tuple] = {}
        self._drop: dict[int, tuple] = {}
        self._cur = self._cur_drop = None
        self._want = False
        self._norm = 0.0

    def inputs(self, m, d_steps):
        t = self._trainer
        slots = self._slots.get((m, d_steps))
        if slots is None:
            slots = self._slots[m, d_steps] = (
                np.empty((d_steps + 1, m, t.n_invariant + t.noise_dim),
                         t.dtype),
                np.empty((d_steps + 1, m, t.n_variant), t.dtype),
            )
        drop = self._drop.get(m)
        if drop is None:
            # the uniform draws, their keep mask, and the two scaled masks
            drop = self._drop[m] = (
                np.empty((m, t.hidden), np.float64),
                np.empty((m, t.hidden), bool),
                np.empty((m, t.hidden), t.dtype),
                np.empty((m, t.hidden), t.dtype),
            )
        self._cur, self._cur_drop = slots, drop
        return slots

    def masks(self, forward: int) -> tuple:
        u, kmask, mask1, mask2 = self._cur_drop
        self._trainer._draw_masks(u, kmask, mask1, mask2)
        return mask1, mask2

    def publish_inputs(self, m, d_steps, want_norm) -> None:
        self._want = want_norm
        self._trainer._g_forwards(*self._cur)

    def wait_fake(self) -> None:
        pass

    def publish_gx(self, grad) -> None:
        g_ins, fakes = self._cur
        self._norm = self._trainer._g_update(g_ins[-1], fakes[-1], grad,
                                             self._want)

    def grad_norm(self) -> float:
        return self._norm


class _ForkedLane:
    """The generator half in a forked process (see the module docstring).

    The lane also draws the D forwards' dropout masks, one update ahead:
    those of update ``k + 1`` after it publishes update ``k``'s last fake,
    those of the first update as it starts.  Update ``k`` is fully
    described by ``sizes[k]`` (its row count) and its parity ``k & 1``.

    Inputs and masks are double-buffered by update parity: the parent
    writes the next update's noise blocks while the lane's G backward still
    reads the last block of the previous one, and the lane writes the next
    update's masks while the parent still reads the current ones.  Fakes
    and the input gradient need one slot each, because every write of one
    follows a hand-off that proves its previous reader is done.
    """

    def __init__(self, trainer, sizes, d_steps: int) -> None:
        t = trainer
        self._sizes = sizes
        self._steps = d_steps + 1
        self._rows = rows = max(sizes)
        self._forwards = 2 * d_steps + 1
        states = [pickle.dumps(r.bit_generator.state)
                  for r in t._drop_rngs()]
        self.shm = _SharedBlock([
            ("ctrl", (_RNG_LEN + 2,), np.int64),
            ("norm", (1,), np.float64),
            ("msg", (_MSG_BYTES,), np.uint8),
            ("g_in", (2, self._steps, rows, t.n_invariant + t.noise_dim),
             t.dtype),
            ("fake", (self._steps, rows, t.n_variant), t.dtype),
            # both dropout layers' scaled masks for each D forward
            ("drop", (2, self._forwards, 2, rows, t.hidden), t.dtype),
            ("gx", (rows, t.n_variant), t.dtype),
            # G parameters, gradients, Adam m and v; running mean and
            # variance of both batch norms; both dropout RNG states
            ("state", (4, t.g_opt.p.size), t.dtype),
            ("stats", (4, t.hidden), t.dtype),
            ("rng", (2, max(map(len, states)) + 256), np.uint8),
        ])
        ctx = multiprocessing.get_context("fork")
        (self._sem_in, self._sem_gx, self._sem_fake, self._sem_mask,
         self._sem_done) = (ctx.Semaphore(0) for _ in range(5))
        self._update = 0
        self._cur = self._cur_masks = None
        self._mask_views: dict[tuple, list] = {}
        self._stopped = False
        self._proc = ctx.Process(target=self._main, args=(t, os.getpid()),
                                 name="cgan-generator-lane", daemon=True)

    # -- parent side --------------------------------------------------------
    def start(self) -> None:
        self._proc.start()

    def inputs(self, m, d_steps):
        k = self._update
        if (k >= len(self._sizes) or m != self._sizes[k]
                or d_steps + 1 != self._steps):
            expected = self._sizes[k] if k < len(self._sizes) else None
            raise ValidationError(
                f"generator lane expects update {k} with {expected} rows "
                f"and {self._steps - 1} D steps, got {m} and {d_steps}"
            )
        shm, parity = self.shm, k & 1
        views = self._mask_views.get((parity, m))
        if views is None:
            slot = shm.drop[parity]
            views = self._mask_views[parity, m] = [
                (slot[j, 0, :m], slot[j, 1, :m])
                for j in range(self._forwards)
            ]
        self._cur_masks = views
        self._cur = (shm.g_in[parity, :, :m], shm.fake[:, :m])
        return self._cur

    def publish_inputs(self, m, d_steps, want_norm) -> None:
        ctrl = self.shm.ctrl
        ctrl[_WANT] = want_norm
        ctrl[_CMD] = _RUN
        self._update += 1
        self._sem_in.release()

    def masks(self, forward: int) -> tuple:
        if forward == 0:
            self._wait(self._sem_mask)
        return self._cur_masks[forward]

    def wait_fake(self) -> None:
        self._wait(self._sem_fake)

    def publish_gx(self, grad) -> None:
        self.shm.gx[:grad.shape[0]] = grad
        self._sem_gx.release()

    def grad_norm(self) -> float:
        self._wait(self._sem_done)
        return float(self.shm.norm[0])

    def finish(self, t) -> None:
        """Stop the lane after its last update; copy G's and the RNG state."""
        if self._update != len(self._sizes):
            raise ValidationError(
                f"generator lane was told of {len(self._sizes)} updates, "
                f"ran {self._update}"
            )
        shm = self.shm
        ctrl = shm.ctrl
        ctrl[_CMD] = _STOP
        self._sem_in.release()
        self._wait(self._sem_done)
        self._stopped = True
        opt = t.g_opt
        for dst, src in zip((opt.p, t._g_grads, opt._m, opt._v), shm.state):
            dst[...] = src
        opt._t = int(ctrl[_ADAM_T])
        for dst, src in zip(t._bn_running(), shm.stats):
            dst[...] = src
        for i, rng in enumerate(t._drop_rngs()):
            blob = bytes(shm.rng[i, :ctrl[_RNG_LEN + i]])
            rng.bit_generator.state = pickle.loads(blob)

    def close(self) -> None:
        """Join the lane (told to abort unless it stopped); kill a stuck one."""
        proc, self._proc = self._proc, None
        if proc is None or proc.pid is None:
            return
        if not self._stopped:
            self.shm.ctrl[_CMD] = _ABORT
            self._sem_in.release()
            self._sem_gx.release()
        proc.join(_JOIN_S)
        if proc.exitcode is None:
            proc.kill()
            proc.join()
        proc.close()

    def _wait(self, sem) -> None:
        if not _spin(sem):
            while not sem.acquire(True, _POLL_S):
                if not self._proc.is_alive():
                    raise TrainingLaneError(
                        "the cGAN generator lane exited with code "
                        f"{self._proc.exitcode}"
                    )
        ctrl = self.shm.ctrl
        if ctrl[_ERR]:
            text = bytes(self.shm.msg[:ctrl[_MSGLEN]]).decode("utf-8",
                                                               "replace")
            raise TrainingLaneError(f"the cGAN generator lane failed: {text}")

    # -- lane side ----------------------------------------------------------
    def _main(self, t, parent_pid: int) -> None:
        # an interactive ^C reaches the whole process group; the parent
        # handles it and stops the lane
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            self._serve(t, parent_pid)
        except BaseException as exc:
            shm = self.shm
            text = f"{type(exc).__name__}: {exc}".encode("utf-8",
                                                          "replace")
            text = text[:_MSG_BYTES]
            shm.msg[:len(text)] = np.frombuffer(text, np.uint8)
            shm.ctrl[_MSGLEN] = len(text)
            shm.ctrl[_ERR] = 1
            # wake the parent wherever it waits
            for _ in range(self._steps):
                self._sem_fake.release()
            self._sem_mask.release()
            self._sem_done.release()
            raise

    def _serve(self, t, parent_pid: int) -> None:
        shm = self.shm
        ctrl = shm.ctrl

        def wait(sem) -> None:
            if not _spin(sem):
                while not sem.acquire(True, _POLL_S):
                    if os.getppid() != parent_pid:
                        os._exit(1)

        sizes = self._sizes
        u = np.empty((self._rows, t.hidden), np.float64)
        kmask = np.empty((self._rows, t.hidden), bool)

        def draw_masks(k) -> None:
            m, slot = sizes[k], shm.drop[k & 1]
            for j in range(self._forwards):
                t._draw_masks(u[:m], kmask[:m], slot[j, 0, :m],
                              slot[j, 1, :m])
            self._sem_mask.release()

        draw_masks(0)
        for k in range(len(sizes)):
            wait(self._sem_in)
            if ctrl[_CMD] != _RUN:
                return
            m, want = sizes[k], bool(ctrl[_WANT])
            g_ins = shm.g_in[k & 1, :, :m]
            fakes = shm.fake[:, :m]
            t._g_forwards(g_ins, fakes, self._sem_fake.release)
            if k + 1 < len(sizes):
                draw_masks(k + 1)
            wait(self._sem_gx)
            if ctrl[_CMD] == _ABORT:
                return
            norm = t._g_update(g_ins[-1], fakes[-1], shm.gx[:m], want)
            if want:
                shm.norm[0] = norm
                self._sem_done.release()
        wait(self._sem_in)
        if ctrl[_CMD] == _STOP:
            opt = t.g_opt
            for dst, src in zip(shm.state, (opt.p, t._g_grads, opt._m,
                                            opt._v)):
                dst[...] = src
            ctrl[_ADAM_T] = opt._t
            for dst, src in zip(shm.stats, t._bn_running()):
                dst[...] = src
            for i, rng in enumerate(t._drop_rngs()):
                blob = pickle.dumps(rng.bit_generator.state)
                shm.rng[i, :len(blob)] = np.frombuffer(blob, np.uint8)
                ctrl[_RNG_LEN + i] = len(blob)
            self._sem_done.release()


class FusedCGANTrainer:
    """Fused minibatch update for the CTGAN-style G/D pair.

    Binds the training set once (:meth:`bind`), lazily builds one buffer
    block per distinct batch size, and then performs the full alternating
    update of Eqs. (8)–(9) with zero allocations and zero per-layer
    dispatch.  Parameters are consolidated into flat vectors (shared with
    the live ``Sequential`` objects as views), so serving, ``state_dict``
    and ``discriminate`` see every update immediately.  Inside
    :meth:`lane` the generator half of each update runs in a forked
    process; outside it, in place.
    """

    def __init__(self, generator, discriminator, *, noise_dim, conditional,
                 lr, weight_decay, dtype) -> None:
        g, d = generator.layers, discriminator.layers
        if len(g) != 8 or len(d) != 8:
            raise ValidationError("FusedCGANTrainer: unexpected network depth")
        self.gd1 = _expect(g[0], Dense, "G[0]")
        self.gbn1 = _expect(g[1], BatchNorm1d, "G[1]")
        _expect(g[2], ReLU, "G[2]")
        self.gd2 = _expect(g[3], Dense, "G[3]")
        self.gbn2 = _expect(g[4], BatchNorm1d, "G[4]")
        _expect(g[5], ReLU, "G[5]")
        self.gd3 = _expect(g[6], Dense, "G[6]")
        _expect(g[7], Tanh, "G[7]")
        self.dd1 = _expect(d[0], Dense, "D[0]")
        self.dl1 = _expect(d[1], LeakyReLU, "D[1]")
        self.ddr1 = _expect(d[2], Dropout, "D[2]")
        self.dd2 = _expect(d[3], Dense, "D[3]")
        self.dl2 = _expect(d[4], LeakyReLU, "D[4]")
        self.ddr2 = _expect(d[5], Dropout, "D[5]")
        self.dd3 = _expect(d[6], Dense, "D[6]")
        _expect(d[7], Sigmoid, "D[7]")
        slope = self.dl1.negative_slope
        if self.dl2.negative_slope != slope:
            raise ValidationError("FusedCGANTrainer: mismatched LeakyReLU slopes")
        # the scale-mask trick needs (1 - slope) + slope to round to exactly
        # 1.0, so that x * sm is bitwise where(x > 0, x, slope * x)
        self._sm_scale = 1.0 - slope
        if self._sm_scale + slope != 1.0:
            raise ValidationError(
                f"FusedCGANTrainer: LeakyReLU slope {slope!r} breaks the "
                "exact scale-mask identity (1 - slope) + slope == 1"
            )

        self.dtype = dt = np.dtype(dtype)
        self.noise_dim = noise_dim
        self.conditional = conditional
        self.n_invariant = self.gd1.in_features - noise_dim
        self.n_variant = self.gd3.out_features
        self.hidden = self.gd1.out_features
        self.d_in = self.dd1.in_features
        # mask constants in the compute dtype: bool -> {0, 1} then one
        # same-dtype multiply equals the mixed bool-by-float ufunc bitwise
        self._sm_scale_dt = dt.type(self._sm_scale)
        self._keep1 = 1.0 - self.ddr1.rate
        self._keep2 = 1.0 - self.ddr2.rate
        self._drop_scale1 = dt.type(1.0 / self._keep1)
        self._drop_scale2 = dt.type(1.0 / self._keep2)

        g_params, g_grads, g_segs = consolidate(
            [self.gd1, self.gbn1, self.gd2, self.gbn2, self.gd3]
        )
        d_params, d_grads, d_segs = consolidate(
            [self.dd1, self.dd2, self.dd3]
        )
        self._g_segs = [flat for flat in g_segs]
        self._d_segs = [flat for flat in d_segs]
        self._g_grads, self._d_grads = g_grads, d_grads
        self.g_opt = FlatAdam(g_params, g_grads, lr=lr,
                              weight_decay=weight_decay)
        self.d_opt = FlatAdam(d_params, d_grads, lr=lr,
                              weight_decay=weight_decay)
        self.bce = BinaryCrossEntropy()
        # per-feature batch-norm vectors: batch mean/var, running-stat
        # scratch, std, and the backward's two column means
        self._bn_vecs = {
            id(bn): {key: np.empty(bn.num_features, dt)
                     for key in ("mean", "var", "tmp", "std", "g_mean",
                                 "gx_mean")}
            for bn in (self.gbn1, self.gbn2)
        }
        self._bufs: dict[int, dict] = {}
        self._g_bufs: dict[int, dict] = {}
        self._X_inv = self._X_var = self._y = None
        self._inline = self._lane = _InlineLane(self)

    # -- data ---------------------------------------------------------------
    def bind(self, X_inv, X_var, y_onehot) -> None:
        """Attach the (already casted, contiguous) training arrays."""
        self._X_inv, self._X_var, self._y = X_inv, X_var, y_onehot

    # -- the generator lane -------------------------------------------------
    @contextmanager
    def lane(self, *, sizes, d_steps: int):
        """Train the block's updates at one BLAS thread, forked if allowed.

        ``sizes`` holds the row count of each :meth:`minibatch` call the
        block will make, in order.  Yields whether the generator half runs
        in a forked lane; when it does not (:func:`_lane_allowed`, or no
        OpenBLAS thread control), the block trains inline.  OpenBLAS is
        pinned to one thread on both paths, unless another Python thread is
        alive: then an inline fit keeps the process's thread count (the
        serve daemon's training does).  On a normal exit the lane's G and
        dropout RNG state is copied back; on every exit the lane is joined
        and the OpenBLAS thread counts are restored.
        """
        work = max(sizes) * (self.g_opt.p.size + self.d_opt.p.size)
        saved = [(set_, get()) for get, set_ in _pinnable_blas_controls()]
        lane = (_ForkedLane(self, sizes, d_steps)
                if saved and _lane_allowed(work, len(sizes)) else None)
        try:
            for set_, _ in saved:
                set_(1)
            if lane is None:
                yield False
            else:
                lane.start()
                self._lane = lane
                yield True
                lane.finish(self)
        finally:
            self._lane = self._inline
            try:
                if lane is not None:
                    lane.close()
            finally:
                for set_, threads in saved:
                    set_(threads)

    def _bn_running(self) -> tuple:
        return (self.gbn1.running_mean, self.gbn1.running_var,
                self.gbn2.running_mean, self.gbn2.running_var)

    def _drop_rngs(self) -> tuple:
        return self.ddr1._rng, self.ddr2._rng

    def _draw_masks(self, u, kmask, mask1, mask2) -> None:
        """Both dropout layers' scaled masks for one D forward.

        Drawn at float64 whatever the compute dtype (RNG stream parity with
        the layer engine), then ``(u < keep)`` is copied into the compute
        dtype and multiplied by ``1 / keep`` (exact, see the module
        docstring).
        """
        for rng, keep, scale, mask in (
            (self.ddr1._rng, self._keep1, self._drop_scale1, mask1),
            (self.ddr2._rng, self._keep2, self._drop_scale2, mask2),
        ):
            rng.random(out=u)
            np.less(u, keep, out=kmask)
            np.copyto(mask, kmask)
            mask *= scale

    # -- buffers ------------------------------------------------------------
    def _buffers(self, m: int) -> dict:
        """The discriminator half's buffers for an ``m``-row minibatch."""
        B = self._bufs.get(m)
        if B is None:
            dt, h = self.dtype, self.hidden
            n_inv, nv = self.n_invariant, self.n_variant
            B = self._bufs[m] = {
                "inv": np.empty((m, n_inv), dt),
                "var": np.empty((m, nv), dt),
                "cond": (np.empty((m, self._y.shape[1]), dt)
                         if self.conditional else None),
                "real_in": np.empty((m, self.d_in), dt),
                "fake_in": np.empty((m, self.d_in), dt),
                "z": np.empty((m, self.noise_dim), np.float64),
                "ones": np.ones((m, 1), dt),
                "zeros": np.zeros((m, 1), dt),
                # discriminator forward/backward ("t" buffers update in
                # place: pre-activation -> LeakyReLU -> dropout output)
                "t1": np.empty((m, h), dt),
                "t2": np.empty((m, h), dt),
                "t3": np.empty((m, 1), dt), "p": np.empty((m, 1), dt),
                "dmask": np.empty((m, h), bool),
                "sm1": np.empty((m, h), dt),
                "sm2": np.empty((m, h), dt),
                "gp": np.empty((m, 1), dt), "ptmp": np.empty((m, 1), dt),
                "gh2": np.empty((m, h), dt), "gh1": np.empty((m, h), dt),
                "gx": np.empty((m, self.d_in), dt),
            }
        return B

    def _g_buffers(self, m: int) -> dict:
        """The generator half's buffers for an ``m``-row minibatch.

        ``a`` buffers are updated in place: pre-activation -> scaled batch
        norm output -> ReLU output.
        """
        G = self._g_bufs.get(m)
        if G is None:
            dt, h, nv = self.dtype, self.hidden, self.n_variant
            G = self._g_bufs[m] = {
                "a1": np.empty((m, h), dt), "xh1": np.empty((m, h), dt),
                "a2": np.empty((m, h), dt), "xh2": np.empty((m, h), dt),
                "a3": np.empty((m, nv), dt),
                "gmask1": np.empty((m, h), bool),
                "gmask2": np.empty((m, h), bool),
                "sq": np.empty((m, h), dt),
                "gt": np.empty((m, nv), dt),
                "ga": np.empty((m, h), dt), "gbn": np.empty((m, h), dt),
            }
        return G

    # -- the generator half -------------------------------------------------
    def _g_forwards(self, g_ins, fakes, publish=None) -> None:
        """G forward on each noise block into its fake slot, in order.

        ``publish`` (the lane's hand-off) is called after each fake.  The
        activations of the last block stay for :meth:`_g_update`.
        """
        G = self._g_buffers(g_ins.shape[1])
        for g_in, fake in zip(g_ins, fakes):
            self._g_forward(G, g_in, fake)
            if publish is not None:
                publish()

    def _g_update(self, g_in, g_out, grad_fake, want_norm) -> float:
        """G backward from d(loss)/d(fake) and G's Adam step.

        Returns the generator's gradient norm when ``want_norm``, else 0.
        """
        self._g_backward(self._g_buffers(g_in.shape[0]), g_in, g_out,
                         grad_fake)
        norm = self.grad_norm("g") if want_norm else 0.0
        self.g_opt.step()
        return norm

    # -- fused passes -------------------------------------------------------
    def _g_forward(self, G, g_in, g_out) -> None:
        """Generator forward (training mode) on ``g_in`` into ``g_out``.

        ``a1``/``a2`` are reused in place (pre-activation, then the scaled
        batch-norm output, then the ReLU output): each rewrite is the exact
        ufunc the generic layer runs, only with ``out=`` aliased to an
        argument, which is safe for elementwise ops.
        """
        bn1, bn2 = self.gbn1, self.gbn2
        a1, xh1 = G["a1"], G["xh1"]
        a2, xh2 = G["a2"], G["xh2"]
        sq = G["sq"]

        np.matmul(g_in, self.gd1.params["W"], out=a1)
        a1 += self.gd1.params["b"]
        self._bn_forward(bn1, a1, xh1, sq)
        np.multiply(xh1, bn1.params["gamma"], out=a1)
        a1 += bn1.params["beta"]
        np.greater(a1, 0, out=G["gmask1"])
        a1 *= G["gmask1"]  # a1 is now the first ReLU output

        np.matmul(a1, self.gd2.params["W"], out=a2)
        a2 += self.gd2.params["b"]
        self._bn_forward(bn2, a2, xh2, sq)
        np.multiply(xh2, bn2.params["gamma"], out=a2)
        a2 += bn2.params["beta"]
        np.greater(a2, 0, out=G["gmask2"])
        a2 *= G["gmask2"]  # a2 is now the second ReLU output

        np.matmul(a2, self.gd3.params["W"], out=G["a3"])
        G["a3"] += self.gd3.params["b"]
        np.tanh(G["a3"], out=g_out)

    def _bn_forward(self, bn, x, x_hat, sq) -> None:
        """Training-mode batch norm: ``x -> x_hat`` plus running stats.

        ``np.var`` recomputes the mean internally; centering first and
        averaging the squares performs numpy's exact ``_var`` operations on
        the matrix we need anyway, so ``var`` (and everything downstream)
        is bit-identical to the generic layer.
        """
        v = self._bn_vecs[id(bn)]
        rows = np.intp(x.shape[0])
        mean, var, tmp, std = v["mean"], v["var"], v["tmp"], v["std"]
        np.add.reduce(x, axis=0, out=mean)
        np.true_divide(mean, rows, out=mean, casting="unsafe")
        np.subtract(x, mean, out=x_hat)
        np.multiply(x_hat, x_hat, out=sq)
        np.add.reduce(sq, axis=0, out=var)
        np.true_divide(var, rows, out=var, casting="unsafe")
        bn.running_mean *= bn.momentum
        np.multiply(mean, 1 - bn.momentum, out=tmp)
        bn.running_mean += tmp
        bn.running_var *= bn.momentum
        np.multiply(var, 1 - bn.momentum, out=tmp)
        bn.running_var += tmp
        np.add(var, bn.eps, out=std)
        np.sqrt(std, out=std)
        np.divide(x_hat, std, out=x_hat)

    def _bn_backward(self, bn, grad, x_hat, tmp, out) -> np.ndarray:
        """Training-mode batch-norm backward (param grads + input grad)."""
        v = self._bn_vecs[id(bn)]
        rows = np.intp(grad.shape[0])
        g_mean, gx_mean = v["g_mean"], v["gx_mean"]
        np.multiply(grad, x_hat, out=tmp)
        np.add.reduce(tmp, axis=0, out=bn.grads["gamma"])
        np.add.reduce(grad, axis=0, out=bn.grads["beta"])
        np.multiply(grad, bn.params["gamma"], out=out)
        np.add.reduce(out, axis=0, out=g_mean)
        np.true_divide(g_mean, rows, out=g_mean, casting="unsafe")
        np.multiply(out, x_hat, out=tmp)
        np.add.reduce(tmp, axis=0, out=gx_mean)
        np.true_divide(gx_mean, rows, out=gx_mean, casting="unsafe")
        np.multiply(x_hat, gx_mean, out=tmp)
        np.subtract(out, g_mean, out=out)
        out -= tmp
        np.divide(out, v["std"], out=out)
        return out

    def _d_forward(self, B, x, masks) -> np.ndarray:
        """Discriminator forward on ``x`` (training mode), into B.

        ``masks`` are the two dropout layers' scaled masks of this forward
        (from the lane).  LeakyReLU runs as a single multiply by the scale
        mask ``sm = mask * (1 - slope) + slope`` (exact, see the module
        docstring) and ``t1``/``t2`` are updated in place through
        activation and dropout, so the layer-1/2 blocks touch two float
        buffers each.
        """
        slope = self.dl1.negative_slope
        scale = self._sm_scale_dt
        t1, t2 = B["t1"], B["t2"]
        sm1, sm2 = B["sm1"], B["sm2"]
        dropm1, dropm2 = masks
        dmask = B["dmask"]

        np.matmul(x, self.dd1.params["W"], out=t1)
        t1 += self.dd1.params["b"]
        np.greater(t1, 0, out=dmask)
        np.copyto(sm1, dmask)
        sm1 *= scale
        sm1 += slope
        t1 *= sm1  # == where(t1 > 0, t1, slope * t1) bitwise
        t1 *= dropm1  # t1 is now the dropout output

        np.matmul(t1, self.dd2.params["W"], out=t2)
        t2 += self.dd2.params["b"]
        np.greater(t2, 0, out=dmask)
        np.copyto(sm2, dmask)
        sm2 *= scale
        sm2 += slope
        t2 *= sm2
        t2 *= dropm2

        t3 = B["t3"]
        np.matmul(t2, self.dd3.params["W"], out=t3)
        t3 += self.dd3.params["b"]
        p = B["p"]
        np.clip(t3, -60.0, 60.0, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        p += 1.0
        np.divide(1.0, p, out=p)
        return p

    def _d_backward(self, B, x, grad, masks, *, param_grads, input_grad):
        """Discriminator backward from loss grad ``grad`` (shape (m, 1)).

        ``masks`` are the dropout masks the forward on ``x`` used.

        ``param_grads=False`` skips all weight/bias gradients (generator
        step: they would be zeroed unread); ``input_grad=False`` skips the
        first layer's input gradient (discriminator steps: unused).

        After :meth:`_d_forward`, ``t1``/``t2`` hold the dropout outputs
        (the inputs of Dense 2/3) and ``sm1``/``sm2`` the LeakyReLU scale
        masks, so each activation backward is one in-place multiply.
        """
        gp, ptmp, p = B["gp"], B["ptmp"], B["p"]
        gh2, gh1 = B["gh2"], B["gh1"]
        dropm1, dropm2 = masks

        np.multiply(grad, p, out=gp)
        np.subtract(1.0, p, out=ptmp)
        np.multiply(gp, ptmp, out=gp)
        if param_grads:
            np.matmul(B["t2"].T, gp, out=self.dd3.grads["W"])
            np.add.reduce(gp, axis=0, out=self.dd3.grads["b"])
        np.matmul(gp, self.dd3.params["W"].T, out=gh2)
        gh2 *= dropm2
        gh2 *= B["sm2"]
        if param_grads:
            np.matmul(B["t1"].T, gh2, out=self.dd2.grads["W"])
            np.add.reduce(gh2, axis=0, out=self.dd2.grads["b"])
        np.matmul(gh2, self.dd2.params["W"].T, out=gh1)
        gh1 *= dropm1
        gh1 *= B["sm1"]
        if param_grads:
            np.matmul(x.T, gh1, out=self.dd1.grads["W"])
            np.add.reduce(gh1, axis=0, out=self.dd1.grads["b"])
        if input_grad:
            np.matmul(gh1, self.dd1.params["W"].T, out=B["gx"])
            return B["gx"]
        return None

    def _g_backward(self, G, g_in, g_out, grad_fake) -> None:
        """Generator backward from d(loss)/d(fake_var) (param grads only)."""
        gt, ga, gbn, sq = G["gt"], G["ga"], G["gbn"], G["sq"]

        np.square(g_out, out=gt)
        np.subtract(1.0, gt, out=gt)
        np.multiply(grad_fake, gt, out=gt)
        np.matmul(G["a2"].T, gt, out=self.gd3.grads["W"])
        np.add.reduce(gt, axis=0, out=self.gd3.grads["b"])
        np.matmul(gt, self.gd3.params["W"].T, out=ga)
        np.multiply(ga, G["gmask2"], out=ga)
        self._bn_backward(self.gbn2, ga, G["xh2"], sq, gbn)
        np.matmul(G["a1"].T, gbn, out=self.gd2.grads["W"])
        np.add.reduce(gbn, axis=0, out=self.gd2.grads["b"])
        np.matmul(gbn, self.gd2.params["W"].T, out=ga)
        np.multiply(ga, G["gmask1"], out=ga)
        self._bn_backward(self.gbn1, ga, G["xh1"], sq, gbn)
        np.matmul(g_in.T, gbn, out=self.gd1.grads["W"])
        np.add.reduce(gbn, axis=0, out=self.gd1.grads["b"])
        # the input gradient of G[0] has no consumer: skipped

    def grad_norm(self, which: str) -> float:
        """Global gradient L2 norm (training-telemetry hooks).

        Matches :meth:`repro.nn.optimizers.Optimizer.grad_norm`: per-parameter
        squared norms summed in parameter order.
        """
        flat = self._g_grads if which == "g" else self._d_grads
        total = 0.0
        pos = 0
        for seg in (self._g_segs if which == "g" else self._d_segs):
            chunk = flat[pos:pos + seg.size]
            total += float(np.dot(chunk, chunk))
            pos += seg.size
        return float(np.sqrt(total))

    # -- the minibatch update ----------------------------------------------
    def minibatch(self, idx, rng, *, d_steps, want_grad_norms=False):
        """One alternating cGAN update on the rows ``idx``.

        Returns ``(d_losses, g_loss, d_grad_norm, g_grad_norm)`` where
        ``d_losses`` has one entry per discriminator step (the reference
        loop's ``0.5 * (loss_real + loss_fake)``).  The generator half runs
        on the current lane (:meth:`lane`), which also gives each D forward
        its dropout masks; with ``want_grad_norms`` the update waits for it
        to finish, to read G's gradient norm.
        """
        m = idx.shape[0]
        B = self._buffers(m)
        lane = self._lane
        n_inv, nv = self.n_invariant, self.n_variant
        bce = self.bce
        inv, var, z = B["inv"], B["var"], B["z"]
        real_in, fake_in = B["real_in"], B["fake_in"]

        np.take(self._X_inv, idx, axis=0, out=inv)
        np.take(self._X_var, idx, axis=0, out=var)
        real_in[:, :n_inv] = inv
        real_in[:, n_inv:n_inv + nv] = var
        fake_in[:, :n_inv] = inv
        if self.conditional:
            cond = B["cond"]
            np.take(self._y, idx, axis=0, out=cond)
            real_in[:, n_inv + nv:] = cond
            fake_in[:, n_inv + nv:] = cond
        # one noise block per D step, then the generator step's, drawn in
        # the serial update's order
        g_ins, fakes = lane.inputs(m, d_steps)
        for g_in in g_ins:
            g_in[:, :n_inv] = inv
            rng.standard_normal(out=z)
            g_in[:, n_inv:] = z
        lane.publish_inputs(m, d_steps, want_grad_norms)

        d_losses = []
        d_grad_norm = g_grad_norm = 0.0
        for step in range(d_steps):
            # --- discriminator step (Eq. 8)
            masks = lane.masks(2 * step)
            p = self._d_forward(B, real_in, masks)
            loss_real = bce.forward(p, B["ones"])
            self._d_backward(B, real_in, bce.backward(), masks,
                             param_grads=True, input_grad=False)
            if want_grad_norms:
                d_grad_norm = self.grad_norm("d")
            self.d_opt.step()
            lane.wait_fake()
            fake_in[:, n_inv:n_inv + nv] = fakes[step]
            masks = lane.masks(2 * step + 1)
            p = self._d_forward(B, fake_in, masks)
            loss_fake = bce.forward(p, B["zeros"])
            self._d_backward(B, fake_in, bce.backward(), masks,
                             param_grads=True, input_grad=False)
            self.d_opt.step()
            d_losses.append(0.5 * (loss_real + loss_fake))

        # --- generator step (Eq. 9, non-saturating)
        lane.wait_fake()
        fake_in[:, n_inv:n_inv + nv] = fakes[d_steps]
        masks = lane.masks(2 * d_steps)
        p = self._d_forward(B, fake_in, masks)
        g_loss = bce.forward(p, B["ones"])
        gx = self._d_backward(B, fake_in, bce.backward(), masks,
                              param_grads=False, input_grad=True)
        lane.publish_gx(gx[:, n_inv:n_inv + nv])
        if want_grad_norms:
            g_grad_norm = lane.grad_norm()
        return d_losses, g_loss, d_grad_norm, g_grad_norm

"""Compiled inference plans: the allocation-free serve path of a pipeline.

:meth:`FSGANPipeline.compile` flattens the pipeline's inference chain —
scale → split variant/invariant → batched MC generator forward → merge →
downstream ``predict_proba`` — into an :class:`InferencePlan` that replays
the exact ufunc sequence of the live pipeline into preallocated workspace
buffers.  The plan's probabilities are **bit-identical** to
``FSGANPipeline.predict_proba`` at both reconstruction dtypes, float32 (the
default) and float64.

The chain is **bound once per executed row count**: the first batch of a
row count looks up every stage buffer, validates every layer shape and
takes the batch-norm constants; later batches of that count replay the
bound ops with no look-up, validation or dispatch.  The ops come from
``MinMaxScaler.bind``, :meth:`repro.nn.layers.Layer.bind` and the
downstream model's ``bind_proba`` (where it has one, as the MLP does):
the same functions their ``transform`` / ``forward`` / ``predict_proba``
run, so the math has one copy.  Every buffer is a prefix view of one
grow-only buffer per stage in the plan's :class:`Workspace`; when a batch
outgrows them, the chains bound to the smaller ones are dropped and
rebound, so memory stays one buffer set.

:meth:`InferencePlan.execute` scores a list of request blocks in one pass,
drawing noise once per block — the daemon's bit-exact micro-batch path.
Under a row capacity the blocks are zero-padded to the next multiple of
:data:`~repro.nn.layers.ROW_TILE` rows, so every generator and classifier
GEMM runs on fixed 16-row slices and a row's result never depends on what
shares its batch.  ``predict_proba`` and ``transform`` are the same chain
without padding.

The plan owns a *clone* of the reconstruction model's RNG, snapshotted at
compile time, so serving never perturbs the pipeline's noise stream (and
vice versa): a plan compiled at state S produces the same draws the pipeline
would have produced from S.
"""

from __future__ import annotations

import time
from functools import partial
from operator import setitem

import numpy as np

from repro.gan.autoencoder import VanillaAutoencoder
from repro.gan.cgan import ConditionalGAN
from repro.gan.vae import ConditionalVAE
from repro.nn.layers import ROW_TILE
from repro.nn.workspace import Workspace
from repro.obs.metrics import MetricHandles
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError
from repro.utils.validation import check_is_fitted

__all__ = ["InferencePlan", "clone_rng", "fast_forward_rng", "padded_rows"]

#: ``serve.stage_seconds`` labels, in chain order
_STAGES = ("scale", "split", "generate", "merge", "predict")
#: bound chains a plan keeps; unpadded scoring binds one per row count
MAX_CHAINS = 32

_METRICS = MetricHandles()


def _lap(laps: list, t0: float) -> float:
    """Append the seconds since ``t0`` to ``laps``; returns the new mark."""
    t1 = time.perf_counter()
    laps.append(t1 - t0)
    return t1


def padded_rows(rows: int) -> int:
    """Rows a capacity-bounded execution of ``rows`` live rows runs.

    The next multiple of :data:`~repro.nn.layers.ROW_TILE`: the inference
    ``Dense`` forward then computes every row inside a ``ROW_TILE``-row
    GEMM, which is what makes coalesced scoring bit-identical to scoring
    each request alone.
    """
    return -(-int(rows) // ROW_TILE) * ROW_TILE


def clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """Independent Generator starting at ``rng``'s current state."""
    new = np.random.Generator(type(rng.bit_generator)())
    new.bit_generator.state = rng.bit_generator.state
    return new


def fast_forward_rng(plan: "InferencePlan", n_values: int) -> "InferencePlan":
    """Advance a freshly compiled plan's noise stream by ``n_values`` draws.

    ``Generator.standard_normal`` produces one sequential value stream:
    drawing N values in chunks yields the same values *and* final state as
    one N-value call, so discarding ``n_values`` draws lands the plan on
    exactly the state an uninterrupted plan would have reached.  The serve
    cache uses this to resume a tenant's stream after eviction or reload
    (see :class:`repro.serve.registry.PlanCache`).
    """
    remaining = int(n_values)
    if remaining < 0:
        raise ValidationError("cannot fast-forward a negative draw count")
    if remaining and plan._rng is None:
        raise ValidationError("plan has no RNG stream to fast-forward")
    if remaining:
        scratch = np.empty(min(remaining, 65536), dtype=np.float64)
        while remaining > 0:
            chunk = min(remaining, scratch.size)
            plan._rng.standard_normal(out=scratch[:chunk])
            remaining -= chunk
    plan.rng_draws = int(n_values)
    return plan


class _Chain:
    """The plan's inference chain bound at one executed row count.

    ``X`` is the input buffer the segments are stacked into; each stage is
    a list of bound ops over fixed buffers.  ``g_in`` and ``z`` (generator
    input and noise) are filled per batch, because where each segment's
    rows and draws go depends on the segment sizes.
    """

    __slots__ = ("X", "scaled", "scale", "split", "X_inv", "g_in", "z",
                 "generate", "gen_out", "var_hat", "merge", "merged",
                 "predict", "proba")


def _run(ops) -> None:
    for op in ops:
        op()


class InferencePlan:
    """Preallocated batch scorer compiled from a fitted :class:`FSGANPipeline`.

    Stage buffers live in a plan-owned :class:`Workspace` (one grow-only
    buffer per stage); once a batch of the largest size has run, the plan
    allocates nothing but its per-request result copies (and the downstream
    model's output when that model has no ``bind_proba``).  Build via
    :meth:`FSGANPipeline.compile`.
    """

    def __init__(self, pipeline, *, n_draws: int = 1) -> None:
        check_is_fitted(pipeline, "model_")
        if not hasattr(pipeline.model_, "predict_proba"):
            raise ValidationError("the downstream model has no predict_proba")
        if n_draws < 1:
            raise ValidationError("n_draws must be >= 1")
        self.n_draws = int(n_draws)
        self._ws = Workspace()
        #: bound chains by executed row count, all over the current buffers
        self._chains: dict[int, _Chain] = {}
        self._bound_rows = 0

        self._scaler = pipeline.scaler_
        separator = pipeline.separator_
        self._inv_idx = np.ascontiguousarray(separator.invariant_indices_)
        self._var_idx = np.ascontiguousarray(separator.variant_indices_)
        self._n_features = int(separator.n_features_)
        self._n_inv = int(self._inv_idx.shape[0])
        self._n_var = int(self._var_idx.shape[0])

        self.model = pipeline.model_
        self.drift_tracker = None
        self._recon = pipeline.reconstructor_.model_
        rng = getattr(self._recon, "_rng", None)
        self._rng = clone_rng(rng) if rng is not None else None
        #: standard-normal values drawn from ``_rng`` since compile — the
        #: plan's position in the artifact's noise stream.  Because numpy's
        #: Generator produces normals as one sequential value stream, a
        #: fresh plan fast-forwarded by this count lands on the identical
        #: RNG state (see ``fast_forward_rng``), which is how the serve
        #: cache keeps eviction/reload bit-identical mid-stream.
        self.rng_draws = 0
        self.spec = pipeline.export_plan()
        self._last_variant: np.ndarray | None = None

    # -- validation ----------------------------------------------------------

    def check_request(self, X, *, capacity: int | None = None) -> np.ndarray:
        """Validate one request batch; returns it as a float64 C-order array.

        A 1-D input is one row.  Rows must be finite and match the plan's
        feature count; ``capacity`` (if given) bounds the row count.
        """
        try:
            X = np.ascontiguousarray(X, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"X is not a numeric matrix: {exc}") from exc
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValidationError(
                f"request batch must be 2-D with >= 1 row, got shape {X.shape}"
            )
        if X.shape[1] != self._n_features:
            raise ValidationError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        if capacity is not None and X.shape[0] > capacity:
            raise ValidationError(
                f"request of {X.shape[0]} rows exceeds the micro-batch "
                f"capacity of {capacity}"
            )
        if not np.isfinite(X).all():
            raise ValidationError("X contains NaN or infinite values")
        return X

    # -- binding -------------------------------------------------------------

    def _chain_for(self, rows: int) -> _Chain:
        """The chain bound at ``rows`` executed rows, binding it if new."""
        chain = self._chains.get(rows)
        if chain is None:
            if rows > self._bound_rows or len(self._chains) >= MAX_CHAINS:
                # growing buffers would leave the bound chains on the old,
                # smaller ones: drop them, so memory stays one buffer set
                self._chains.clear()
                self._bound_rows = max(rows, self._bound_rows)
            chain = self._chains[rows] = self._bind(rows)
        return chain

    def _bind(self, rows: int) -> _Chain:
        """Bind scale → split → reconstruct → merge → predict at ``rows``."""
        ws, c = self._ws, _Chain()
        c.X = ws.get("padded", (rows, self._n_features))
        c.scale, Xs = self._scaler.bind(c.X, ws, "scaled")
        c.scaled = Xs
        X_inv = c.X_inv = ws.get("inv", (rows, self._n_inv))
        c.split = [partial(np.take, Xs, self._inv_idx, axis=1, out=X_inv)]

        recon, n_draws = self._recon, self.n_draws
        c.g_in = c.z = None
        c.var_hat = ws.get("var_hat", (rows, self._n_var))
        if isinstance(recon, VanillaAutoencoder):
            c.generate, out = recon.network_.bind(X_inv, ws, "recon")
            c.generate.append(partial(np.copyto, c.var_hat, out))
        elif isinstance(recon, (ConditionalGAN, ConditionalVAE)):
            if isinstance(recon, ConditionalGAN):
                network, code_dim = recon.generator_, recon.noise_dim
            else:
                network, code_dim = recon.decoder_, recon.latent_dim
            dt = getattr(recon, "_dtype", np.dtype(np.float64))
            c.g_in = ws.get("g_in", (n_draws * rows, self._n_inv + code_dim),
                            dt)
            c.z = ws.get("z", (n_draws * rows, code_dim), np.float64)
            c.generate, c.gen_out = network.bind(c.g_in, ws, "recon")
        else:  # identity reconstructor: the variant block has no columns
            c.generate = []

        merged = c.merged = ws.get("merged", (rows, self._n_features))
        c.merge = [partial(setitem, merged, (slice(None), self._inv_idx), X_inv),
                   partial(setitem, merged, (slice(None), self._var_idx),
                           c.var_hat)]
        bind_proba = getattr(self.model, "bind_proba", None)
        if bind_proba is not None:
            c.predict, c.proba = bind_proba(merged, ws, "model")
        else:
            c.predict, c.proba = None, None
        return c

    # -- execution -----------------------------------------------------------

    def _generate(self, c: _Chain, sizes: list[int], m: int) -> None:
        """Variant block of the live rows, drawing noise once per segment."""
        if c.g_in is None:  # deterministic reconstructor
            _run(c.generate)
            return
        n_draws, n_inv, g_in, z = self.n_draws, self._n_inv, c.g_in, c.z
        live = n_draws * m
        # segment s owns the n_draws * n_s noise rows after those of the
        # segments before it, so one draw over all live rows is the exact
        # RNG consumption of one draw per segment in list order
        self._rng.standard_normal(out=z[:live])
        self.rng_draws += z[:live].size
        if n_draws == 1:
            g_in[:m, :n_inv] = c.X_inv[:m]
        else:
            off = 0
            for n in sizes:
                g_off = n_draws * off
                for d in range(n_draws):
                    g_in[g_off + d * n:g_off + (d + 1) * n, :n_inv] = (
                        c.X_inv[off:off + n]
                    )
                off += n
        g_in[:live, n_inv:] = z[:live]
        g_in[live:] = 0.0
        _run(c.generate)
        var_hat, out = c.var_hat, c.gen_out
        var_hat[...] = 0.0
        if n_draws == 1:
            # the draw mean of one draw: x / 1 is exact, so it is skipped
            var_hat[:m] += out[:m]
            return
        off = 0
        for n in sizes:
            g_off = n_draws * off
            draws = out[g_off:g_off + n_draws * n].reshape(
                n_draws, n, self._n_var
            )
            total = var_hat[off:off + n]
            # sequential accumulate — same add order as ConditionalGAN.generate
            for d in range(n_draws):
                total += draws[d]
            total /= n_draws
            off += n

    def _stack(self, segments, capacity: int | None):
        """Validate segments and copy them, zero-padded, into a bound chain.

        Returns ``(chain, sizes)``.  ``capacity`` bounds the live row count
        and switches on padding to :func:`padded_rows`; ``None`` means no
        bound and no padding.
        """
        segments = [self.check_request(seg, capacity=capacity)
                    for seg in segments]
        sizes = [seg.shape[0] for seg in segments]
        m = sum(sizes)
        if capacity is None:
            rows = m
        elif m > capacity:
            raise ValidationError(
                f"micro-batch of {m} rows exceeds capacity {capacity}"
            )
        else:
            rows = padded_rows(m)
        chain = self._chain_for(rows)
        X, off = chain.X, 0
        for seg, n in zip(segments, sizes):
            X[off:off + n] = seg
            off += n
        X[m:] = 0.0
        return chain, sizes

    def _chain(self, c: _Chain, sizes: list[int], *,
               predict: bool) -> np.ndarray:
        """Scale → drift update → split → reconstruct → merge (→ predict).

        Replays the bound chain over its stacked input; the drift tracker
        sees only the live rows.  Returns the merged buffer, or the
        probabilities when ``predict``.  Every stage opens a span; its
        ``serve.stage_seconds`` histogram is observed only under an
        enabled metrics registry.
        """
        m = sum(sizes)
        tracer, laps = get_tracer(), []
        t = time.perf_counter()
        with tracer.span("serve.scale", n_samples=m):
            _run(c.scale)
        t = _lap(laps, t)
        if self.drift_tracker is not None:
            self.drift_tracker.update(c.scaled[:m])
            t = time.perf_counter()  # tracker time is no stage's
        with tracer.span("serve.split"):
            _run(c.split)
        t = _lap(laps, t)
        with tracer.span("serve.reconstruct", n_draws=self.n_draws):
            self._generate(c, sizes, m)
        t = _lap(laps, t)
        with tracer.span("serve.merge"):
            _run(c.merge)
        t = _lap(laps, t)
        self._last_variant = c.var_hat[:m]
        out = c.merged
        if predict:
            with tracer.span("serve.predict"):
                if c.predict is None:
                    out = self.model.predict_proba(out)
                else:
                    _run(c.predict)
                    out = c.proba
            _lap(laps, t)
        metrics = _METRICS.current()
        if metrics is not None:
            for stage, seconds in zip(_STAGES, laps):
                metrics.histogram("serve.stage_seconds",
                                  stage=stage).observe(seconds)
        return out

    # -- public surface ------------------------------------------------------

    def attach_drift_tracker(self, tracker) -> "InferencePlan":
        """Stream every scaled batch into ``tracker`` (see ``repro.obs.drift``).

        The tracker scores the live input distribution against its
        reference (PSI/KS gauges, ``drift.alarm`` events).  Detach with
        ``attach_drift_tracker(None)``.
        """
        self.drift_tracker = tracker
        return self

    def execute(self, segments, *,
                capacity: int | None = None) -> list[np.ndarray]:
        """Score request row blocks in one pass; one proba array per block.

        ``capacity`` bounds the total row count (a larger batch raises
        :class:`ValidationError`); it is not the executed row count.  With
        a capacity the chain runs at ``padded_rows(total)`` rows — zero
        rows appended up to the next multiple of ``ROW_TILE`` — so every
        generator and classifier GEMM runs on ``ROW_TILE``-row slices;
        ``None`` runs the total row count unpadded.  Noise is drawn once
        per segment in list order.  Each row's result is therefore a pure
        function of its input and its segment's draws: scoring ``[A, B]``
        together is bit-identical to ``[A]`` then ``[B]``, at any capacity
        that admits them (see DESIGN.md, "Micro-batch coalescing").
        """
        if not segments:
            return []
        t0 = time.perf_counter()
        chain, sizes = self._stack(segments, capacity)
        with get_tracer().span("serve.batch", n_samples=sum(sizes),
                               padded_rows=chain.X.shape[0],
                               requests=len(sizes)):
            proba = self._chain(chain, sizes, predict=True)
        out, off = [], 0
        for n in sizes:
            out.append(proba[off:off + n].copy())
            off += n
        metrics = _METRICS.current()
        if metrics is not None:
            seconds = time.perf_counter() - t0
            metrics.counter("serve_batches").inc()
            metrics.counter("serve_rows").inc(off)
            metrics.histogram("serve.latency").observe(seconds)
            metrics.histogram("serve_batch_seconds").observe(seconds)
        return out

    def last_variant(self) -> np.ndarray:
        """Reconstructed variant block of the last execution's live rows.

        A workspace view (rows in segment order, columns in variant-index
        order), valid until the plan's next call.  Shadow scoring compares
        it between the incumbent and the candidate plan.
        """
        return self._last_variant

    def transform(self, X) -> np.ndarray:
        """Source-like samples in scaled space (the pipeline's Eq. 11 path).

        Returns a workspace buffer, valid until the next call.
        """
        chain, sizes = self._stack([X], None)
        return self._chain(chain, sizes, predict=False)

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities; bit-identical to the live pipeline."""
        return self.execute([X])[0]

    def labels(self, proba: np.ndarray) -> np.ndarray:
        """Class labels of probability rows (argmax through ``classes_``)."""
        codes = np.argmax(proba, axis=1)
        classes = getattr(self.model, "classes_", None)
        return classes[codes] if classes is not None else codes

    def predict(self, X) -> np.ndarray:
        """Predicted labels (argmax of :meth:`predict_proba`)."""
        return self.labels(self.predict_proba(X))

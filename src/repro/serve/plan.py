"""Compiled inference plans: the allocation-free serve path of a pipeline.

:meth:`FSGANPipeline.compile` flattens the pipeline's inference chain —
scale → split variant/invariant → batched MC generator forward → merge →
downstream ``predict_proba`` — into an :class:`InferencePlan` that replays
the exact ufunc sequence of the live pipeline into preallocated workspace
buffers.  At float64 the plan's probabilities are **bit-identical** to
``FSGANPipeline.predict_proba``; at float32 they match within the fused-path
tolerance contract (see EXPERIMENTS.md).

:meth:`InferencePlan.execute` holds the only copy of that chain.  It scores
a list of request blocks in one pass, drawing noise once per block — the
daemon's bit-exact micro-batch path.  Under a row capacity the blocks are
zero-padded to the next multiple of :data:`~repro.nn.layers.ROW_TILE`
rows, so every generator and classifier GEMM runs on fixed 16-row slices
and a row's result never depends on what shares its batch.
``predict_proba`` and ``transform`` are the same chain without padding.

The plan owns a *clone* of the reconstruction model's RNG, snapshotted at
compile time, so serving never perturbs the pipeline's noise stream (and
vice versa): a plan compiled at state S produces the same draws the pipeline
would have produced from S.
"""

from __future__ import annotations

import time

import numpy as np

from repro.gan.autoencoder import VanillaAutoencoder
from repro.gan.cgan import ConditionalGAN
from repro.gan.vae import ConditionalVAE
from repro.nn.layers import ROW_TILE
from repro.nn.workspace import Workspace
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError
from repro.utils.validation import check_is_fitted

__all__ = ["InferencePlan", "clone_rng", "fast_forward_rng", "padded_rows"]

#: ``serve.stage_seconds`` labels, in chain order
_STAGES = ("scale", "split", "generate", "merge", "predict")


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


class InferencePlan:
    """Preallocated batch scorer compiled from a fitted :class:`FSGANPipeline`.

    Stage buffers live in a plan-owned :class:`Workspace` (one grow-only
    buffer per stage); once a batch of the largest size has run, the plan
    allocates nothing but the downstream model's own output.  Build via
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

        scaler = pipeline.scaler_
        self._lo, self._hi = scaler.feature_range
        self._data_min = scaler.data_min_
        self._scale = scaler._scale
        self._constant = scaler._scale == 0.0
        self._any_constant = bool(np.any(self._constant))

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

    # -- stages (each replays the live pipeline's exact ufunc sequence) ------

    def _scale_stage(self, X: np.ndarray) -> np.ndarray:
        ws = self._ws
        out = ws.get("scaled", X.shape)
        # same op order as MinMaxScaler.transform: lo + (X - min) * scale
        np.subtract(X, self._data_min, out=out)
        np.multiply(out, self._scale, out=out)
        np.add(out, self._lo, out=out)
        if self._any_constant:
            out[:, self._constant] = (self._lo + self._hi) / 2.0
        return out

    def _split_stage(self, Xs: np.ndarray) -> np.ndarray:
        inv = self._ws.get("inv", (Xs.shape[0], self._n_inv))
        np.take(Xs, self._inv_idx, axis=1, out=inv)
        return inv

    def _reconstruct_stage(self, X_inv: np.ndarray,
                           sizes: list[int]) -> np.ndarray:
        """Variant block for every row, drawing noise once per segment."""
        recon, ws, n_draws = self._recon, self._ws, self.n_draws
        rows = X_inv.shape[0]
        if isinstance(recon, VanillaAutoencoder):
            var_hat = ws.get("var_hat", (rows, self._n_var))
            var_hat[...] = recon.network_.forward(X_inv, training=False)
            return var_hat
        if isinstance(recon, ConditionalGAN):
            network, code_dim = recon.generator_, recon.noise_dim
        elif isinstance(recon, ConditionalVAE):
            network, code_dim = recon.decoder_, recon.latent_dim
        else:  # identity reconstructor (empty variant block)
            return ws.zeros("var_hat", (rows, self._n_var))
        dt = getattr(recon, "_dtype", np.dtype(np.float64))
        n_inv = self._n_inv
        g_in = ws.get("g_in", (n_draws * rows, n_inv + code_dim), dt)
        z = ws.get("z", (n_draws * rows, code_dim), np.float64)
        off = 0
        for n in sizes:
            g_off = n_draws * off
            block = slice(g_off, g_off + n_draws * n)
            # one draw per segment, in list order — the exact RNG
            # consumption of scoring each segment on its own
            self._rng.standard_normal(out=z[block])
            self.rng_draws += z[block].size
            for d in range(n_draws):
                g_in[g_off + d * n:g_off + (d + 1) * n, :n_inv] = (
                    X_inv[off:off + n]
                )
            g_in[block, n_inv:] = z[block]
            off += n
        g_in[n_draws * off:] = 0.0
        out = network.forward(g_in, training=False)
        var_hat = ws.zeros("var_hat", (rows, self._n_var))
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
        return var_hat

    def _merge_stage(self, X_inv: np.ndarray, X_var: np.ndarray) -> np.ndarray:
        merged = self._ws.get("merged", (X_inv.shape[0], self._n_features))
        merged[:, self._inv_idx] = X_inv
        merged[:, self._var_idx] = X_var
        return merged

    def _stack(self, segments, capacity: int | None):
        """Validate segments into one zero-padded matrix.

        Returns ``(X, sizes)``.  ``capacity`` bounds the live row count and
        switches on padding to :func:`padded_rows`; ``None`` means no bound
        and no padding.
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
        if len(segments) == 1 and m == rows:
            return segments[0], sizes
        X = self._ws.get("padded", (rows, self._n_features))
        off = 0
        for seg, n in zip(segments, sizes):
            X[off:off + n] = seg
            off += n
        X[m:] = 0.0
        return X, sizes

    def _chain(self, X: np.ndarray, sizes: list[int], *,
               predict: bool) -> np.ndarray:
        """Scale → drift update → split → reconstruct → merge (→ predict).

        Runs over the stacked matrix from :meth:`_stack`; the drift tracker
        sees only the live rows.  Returns the merged workspace buffer, or
        the model's probabilities when ``predict``.  Every stage opens a
        span; its ``serve.stage_seconds`` histogram is observed only under
        an enabled metrics registry.
        """
        m = sum(sizes)
        tracer, laps = get_tracer(), []
        t = time.perf_counter()
        with tracer.span("serve.scale", n_samples=m):
            Xs = self._scale_stage(X)
        t = _lap(laps, t)
        if self.drift_tracker is not None:
            self.drift_tracker.update(Xs[:m])
            t = time.perf_counter()  # tracker time is no stage's
        with tracer.span("serve.split"):
            X_inv = self._split_stage(Xs)
        t = _lap(laps, t)
        with tracer.span("serve.reconstruct", n_draws=self.n_draws):
            X_var = self._reconstruct_stage(X_inv, sizes)
        t = _lap(laps, t)
        with tracer.span("serve.merge"):
            out = self._merge_stage(X_inv, X_var)
        t = _lap(laps, t)
        self._last_variant = X_var[:m]
        if predict:
            with tracer.span("serve.predict"):
                out = self.model.predict_proba(out)
            _lap(laps, t)
        registry = get_metrics()
        if registry.enabled:
            for stage, seconds in zip(_STAGES, laps):
                registry.histogram("serve.stage_seconds",
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
        X, sizes = self._stack(segments, capacity)
        with get_tracer().span("serve.batch", n_samples=sum(sizes),
                               padded_rows=X.shape[0],
                               requests=len(sizes)):
            proba = self._chain(X, sizes, predict=True)
        out, off = [], 0
        for n in sizes:
            out.append(proba[off:off + n].copy())
            off += n
        registry = get_metrics()
        if registry.enabled:
            seconds = time.perf_counter() - t0
            registry.counter("serve_batches").inc()
            registry.counter("serve_rows").inc(off)
            registry.histogram("serve.latency").observe(seconds)
            registry.histogram("serve_batch_seconds").observe(seconds)
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
        X, sizes = self._stack([X], None)
        return self._chain(X, sizes, predict=False)

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities; bit-identical (float64) to the live pipeline."""
        return self.execute([X])[0]

    def labels(self, proba: np.ndarray) -> np.ndarray:
        """Class labels of probability rows (argmax through ``classes_``)."""
        codes = np.argmax(proba, axis=1)
        classes = getattr(self.model, "classes_", None)
        return classes[codes] if classes is not None else codes

    def predict(self, X) -> np.ndarray:
        """Predicted labels (argmax of :meth:`predict_proba`)."""
        return self.labels(self.predict_proba(X))

"""Conditional GAN for reconstructing domain-variant features (§V-C).

Architecture follows CTGAN (Xu et al., 2019) as the paper specifies:

- **Generator** ``G([X_inv, z]) → X̂_var``: two fully connected hidden layers
  with batch normalization and ReLU; tanh output for the (continuous,
  [-1, 1]-scaled) variant features.
- **Discriminator** ``D([X_inv, X_var, Y]) → [0, 1]``: two fully connected
  layers with leaky ReLU and dropout; sigmoid output.  Conditioning the
  discriminator on the one-hot label ``Y`` is the paper's Eq. (7); the
  ``conditional=False`` switch produces the FS+NoCond ablation of Table II.

Training is the alternating minimization of Eqs. (8)–(9): the discriminator
minimizes BCE on real-vs-generated triples, the generator the non-saturating
``-log D(fake)`` objective.  The GAN is trained **exclusively on source
domain data** — the property that lets the downstream models stay frozen.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.estimator import Estimator, register_estimator
from repro.nn.fused import FusedCGANTrainer
from repro.nn.layers import BatchNorm1d, Dense, Dropout, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.network import Sequential, iterate_minibatches
from repro.nn.workspace import Workspace
from repro.obs.hooks import as_hook
from repro.obs.metrics import get_metrics
from repro.utils.errors import ValidationError
from repro.utils.validation import (
    check_array,
    check_dtype,
    check_is_fitted,
    check_random_state,
)


@register_estimator("cgan")
class ConditionalGAN(Estimator):
    """CTGAN-style conditional GAN trained on source data only.

    Parameters
    ----------
    noise_dim:
        Dimension of the Gaussian noise vector ``z``.  The paper uses 30 for
        the 442-feature 5GC dataset and 15 for the 116-feature 5GIPC dataset —
        small relative to the data so that M=1 Monte-Carlo inference is stable.
    hidden_size:
        Width of the two hidden layers in both G and D (256 / 128 in paper).
    epochs, batch_size:
        Paper defaults: 500 epochs, batch 64 (scaled down in experiments).
    lr, weight_decay:
        Adam settings for both networks (paper: 2e-4 and 1e-6).
    conditional:
        Whether the discriminator sees the one-hot label (False = FS+NoCond).
    d_steps:
        Discriminator updates per generator update.
    dtype:
        Compute dtype for both networks: ``"float64"`` (default, exact) or
        ``"float32"`` (fast path; results are tolerance-bounded, not
        bit-identical).  Noise and dropout masks are always drawn at float64
        so both modes consume the RNG stream identically.
    """

    _fitted_attr = "generator_"
    _state_scalars = ("n_invariant_", "n_variant_", "n_classes_", "history_")
    _state_networks = ("generator_", "discriminator_")

    def __init__(
        self,
        *,
        noise_dim: int = 16,
        hidden_size: int = 128,
        epochs: int = 200,
        batch_size: int = 64,
        lr: float = 2e-4,
        weight_decay: float = 1e-6,
        conditional: bool = True,
        d_steps: int = 1,
        dropout: float = 0.25,
        dtype="float64",
        random_state=None,
    ) -> None:
        if noise_dim < 1:
            raise ValidationError("noise_dim must be >= 1")
        if hidden_size < 1:
            raise ValidationError("hidden_size must be >= 1")
        if epochs < 1 or batch_size < 1 or d_steps < 1:
            raise ValidationError("epochs, batch_size and d_steps must be >= 1")
        self.dtype = dtype
        self._dtype = check_dtype(dtype)
        self.noise_dim = noise_dim
        self.hidden_size = hidden_size
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.weight_decay = weight_decay
        self.conditional = conditional
        self.d_steps = d_steps
        self.dropout = dropout
        self.random_state = random_state
        self.generator_: Sequential | None = None
        self.discriminator_: Sequential | None = None
        self.n_invariant_: int | None = None
        self.n_variant_: int | None = None
        self.n_classes_: int | None = None
        self.history_: dict[str, list[float]] = {"d_loss": [], "g_loss": []}

    # -- serialization ------------------------------------------------------
    def _extra_meta(self) -> dict:
        # the serve path draws MC noise from self._rng; persisting the PCG64
        # state is what makes a reloaded adapter's first generate() call
        # bit-identical to the live pipeline's
        rng = getattr(self, "_rng", None)
        if rng is not None:
            return {"rng_state": rng.bit_generator.state}
        return {}

    def _prepare_load(self, meta: dict, state: dict) -> None:
        self._dtype = check_dtype(self.dtype)
        build_rng = np.random.default_rng(0)
        self.generator_ = self._build_generator(build_rng)
        self.discriminator_ = self._build_discriminator(build_rng)
        if self._dtype != np.float64:
            self.generator_.to(self._dtype)
            self.discriminator_.to(self._dtype)
        self._serve_ws = Workspace()
        self._rng = np.random.default_rng(0)
        rng_state = meta.get("rng_state")
        if rng_state is not None and rng_state.get("bit_generator") == type(
            self._rng.bit_generator
        ).__name__:
            self._rng.bit_generator.state = rng_state

    # -- construction -------------------------------------------------------
    def _build_generator(self, rng: np.random.Generator) -> Sequential:
        h = self.hidden_size
        in_dim = self.n_invariant_ + self.noise_dim
        seed = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
        return Sequential(
            [
                Dense(in_dim, h, random_state=seed()),
                BatchNorm1d(h),
                ReLU(),
                Dense(h, h, random_state=seed()),
                BatchNorm1d(h),
                ReLU(),
                Dense(h, self.n_variant_, init="glorot_uniform", random_state=seed()),
                Tanh(),
            ]
        )

    def _build_discriminator(self, rng: np.random.Generator) -> Sequential:
        h = self.hidden_size
        in_dim = self.n_invariant_ + self.n_variant_
        if self.conditional:
            in_dim += self.n_classes_
        seed = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
        return Sequential(
            [
                Dense(in_dim, h, random_state=seed()),
                LeakyReLU(0.2),
                Dropout(self.dropout, random_state=seed()),
                Dense(h, h, random_state=seed()),
                LeakyReLU(0.2),
                Dropout(self.dropout, random_state=seed()),
                Dense(h, 1, init="glorot_uniform", random_state=seed()),
                Sigmoid(),
            ]
        )

    # -- training -------------------------------------------------------------
    def fit(self, X_inv, X_var, y_onehot=None, *, hooks=None) -> "ConditionalGAN":
        """Train on source-domain triples ``(X_inv, X_var, Y)``.

        ``y_onehot`` may be omitted when ``conditional=False``.  ``hooks``
        (a :class:`repro.obs.TrainingHook`, a list of them, or None) receives
        per-epoch telemetry: D/G losses, epoch wall time and — for hooks with
        ``wants_grad_norms`` — last-batch gradient norms.  Hooks never touch
        the RNG, so training is byte-identical with or without them.
        """
        X_inv = check_array(X_inv, name="X_inv")
        X_var = check_array(X_var, name="X_var")
        if X_inv.shape[0] != X_var.shape[0]:
            raise ValidationError("X_inv and X_var must have the same number of rows")
        if self.conditional:
            if y_onehot is None:
                raise ValidationError("conditional GAN requires y_onehot")
            y_onehot = check_array(y_onehot, name="y_onehot")
            if y_onehot.shape[0] != X_inv.shape[0]:
                raise ValidationError("y_onehot must match the number of samples")
            self.n_classes_ = y_onehot.shape[1]
        else:
            self.n_classes_ = 0
        self.n_invariant_ = X_inv.shape[1]
        self.n_variant_ = X_var.shape[1]
        dt = self._dtype = check_dtype(self.dtype)
        X_inv = np.ascontiguousarray(X_inv, dtype=dt)
        X_var = np.ascontiguousarray(X_var, dtype=dt)
        if self.conditional:
            y_onehot = np.ascontiguousarray(y_onehot, dtype=dt)
        rng = check_random_state(self.random_state)
        self._rng = rng
        self.generator_ = self._build_generator(rng)
        self.discriminator_ = self._build_discriminator(rng)
        if dt != np.float64:
            self.generator_.to(dt)
            self.discriminator_.to(dt)
        # The whole minibatch update runs in the straight-line fused kernel
        # (flat-parameter Adam, dead-gradient skipping, per-batch buffers);
        # parameters stay shared with the Sequential objects as views.  Its
        # generator half runs in a forked lane process when the host and
        # the fit size allow (bit-identical either way, see repro.nn.fused).
        trainer = FusedCGANTrainer(
            self.generator_, self.discriminator_,
            noise_dim=self.noise_dim, conditional=self.conditional,
            lr=self.lr, weight_decay=self.weight_decay, dtype=dt,
        )
        trainer.bind(X_inv, X_var, y_onehot if self.conditional else None)
        n = X_inv.shape[0]
        batch = min(self.batch_size, n)
        n_batches = -(-n // batch)
        self.history_ = {"d_loss": [], "g_loss": []}
        hook = as_hook(hooks)
        registry = get_metrics()
        telemetry = hook.active or registry.enabled
        grad_norms = hook.wants_grad_norms
        hook.on_train_begin(self, self.epochs)

        self._serve_ws = Workspace()

        # the row count of every update: an epoch's last batch may be short
        last = n - batch * (n_batches - 1)
        sizes = ([batch] * (n_batches - 1) + [last]) * self.epochs
        with trainer.lane(sizes=sizes, d_steps=self.d_steps) as forked:
            # whether the generator half ran in a forked lane process
            self.train_lane_ = forked
            for epoch in range(self.epochs):
                epoch_t0 = time.perf_counter() if telemetry else 0.0
                d_grad_norm = g_grad_norm = 0.0
                d_losses, g_losses = [], []
                for b, idx in enumerate(iterate_minibatches(n, batch, rng)):
                    # hooks log the last batch's norms: only it waits for G
                    batch_d, g_loss, dgn, ggn = trainer.minibatch(
                        idx, rng, d_steps=self.d_steps,
                        want_grad_norms=grad_norms and b == n_batches - 1,
                    )
                    d_losses.extend(batch_d)
                    g_losses.append(g_loss)
                    if grad_norms:
                        d_grad_norm, g_grad_norm = dgn, ggn

                d_loss = float(np.mean(d_losses))
                g_loss = float(np.mean(g_losses))
                self.history_["d_loss"].append(d_loss)
                self.history_["g_loss"].append(g_loss)
                if telemetry:
                    seconds = time.perf_counter() - epoch_t0
                    if registry.enabled:
                        registry.histogram("gan_epoch_seconds").observe(seconds)
                        registry.histogram("gan_d_loss").observe(d_loss)
                        registry.histogram("gan_g_loss").observe(g_loss)
                    if hook.active:
                        logs = {"d_loss": d_loss, "g_loss": g_loss,
                                "seconds": seconds}
                        if grad_norms:
                            logs["d_grad_norm"] = d_grad_norm
                            logs["g_grad_norm"] = g_grad_norm
                        hook.on_epoch_end(epoch, logs)
        hook.on_train_end(
            {
                "epochs": self.epochs,
                "d_loss": self.history_["d_loss"][-1],
                "g_loss": self.history_["g_loss"][-1],
            }
        )
        return self

    def _d_input(self, inv: np.ndarray, var: np.ndarray,
                 cond: np.ndarray | None) -> np.ndarray:
        if self.conditional:
            return np.concatenate([inv, var, cond], axis=1)
        return np.concatenate([inv, var], axis=1)

    # -- inference --------------------------------------------------------
    def generate(self, X_inv, *, n_draws: int = 1, random_state=None) -> np.ndarray:
        """Reconstruct variant features for each row of ``X_inv`` (Eq. 10).

        With ``n_draws > 1`` the Monte-Carlo average over noise draws is
        returned (the M-sample estimate of §V-C2); the paper shows M=1
        suffices when ``noise_dim`` is small.

        All draws run as **one stacked forward pass** over an
        ``(n_draws * n, ·)`` batch: the generator input and noise live in
        reusable serving buffers, so repeated calls at the same shape
        allocate only the returned average.  The noise stream is identical
        to the draw-at-a-time loop (one big C-order draw equals sequential
        per-draw arrays concatenated).
        """
        check_is_fitted(self, "generator_")
        X_inv = check_array(X_inv, name="X_inv")
        if X_inv.shape[1] != self.n_invariant_:
            raise ValidationError(
                f"expected {self.n_invariant_} invariant features, got {X_inv.shape[1]}"
            )
        if n_draws < 1:
            raise ValidationError("n_draws must be >= 1")
        rng = check_random_state(random_state) if random_state is not None else self._rng
        n, n_inv = X_inv.shape[0], self.n_invariant_
        ws = getattr(self, "_serve_ws", None)
        if ws is None:
            ws = self._serve_ws = Workspace()
        dt = getattr(self, "_dtype", np.dtype(np.float64))
        g_in = ws.get("g_in", (n_draws * n, n_inv + self.noise_dim), dt)
        z = ws.get("z", (n_draws * n, self.noise_dim), np.float64)
        rng.standard_normal(out=z)
        inv_rows = g_in[:, :n_inv]
        for d in range(n_draws):
            inv_rows[d * n:(d + 1) * n] = X_inv
        g_in[:, n_inv:] = z
        out = self.generator_.forward(g_in, training=False)
        draws = out.reshape(n_draws, n, self.n_variant_)
        # accumulate sequentially (not .mean(axis=0)): same add order as the
        # per-draw loop, so the only float64 deviation from it is last-ULP
        # BLAS blocking roundoff in the stacked matmuls (<= 1e-12)
        total = np.zeros((n, self.n_variant_))
        for d in range(n_draws):
            total += draws[d]
        total /= n_draws
        return total

    def discriminate(self, X_inv, X_var, y_onehot=None) -> np.ndarray:
        """Discriminator scores in [0, 1] for given triples."""
        check_is_fitted(self, "discriminator_")
        X_inv = check_array(X_inv, name="X_inv")
        X_var = check_array(X_var, name="X_var")
        cond = None
        if self.conditional:
            if y_onehot is None:
                raise ValidationError("conditional GAN requires y_onehot")
            cond = check_array(y_onehot, name="y_onehot")
        # forward returns a reused workspace buffer — hand back a copy
        return self.discriminator_.forward(
            self._d_input(X_inv, X_var, cond), training=False
        ).ravel().copy()

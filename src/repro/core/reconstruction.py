"""Variant-feature reconstruction (§V-C, step 2).

:class:`VariantReconstructor` hides the choice of generative model behind a
single surface: ``fit(X_inv, X_var, y)`` on source data and
``reconstruct(X_inv)`` at inference.  The four strategies are exactly the
Table II ablation arms.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ReconstructionConfig
from repro.core.estimator import Estimator, register_estimator
from repro.gan.autoencoder import VanillaAutoencoder
from repro.gan.cgan import ConditionalGAN
from repro.gan.vae import ConditionalVAE
from repro.ml.preprocessing import one_hot
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array, check_is_fitted


@register_estimator("variant_reconstructor")
class VariantReconstructor(Estimator):
    """Reconstructs domain-variant features from domain-invariant features.

    The underlying model is trained exclusively on **source** data; at
    inference it maps a target sample's invariant features to source-like
    variant values (Eq. 10), which is what removes the drift from the
    variant block without discarding its information content.

    The model trains and serves in ``config.dtype``: float32 unless the
    config asks for float64.  The estimator classes it builds keep their own
    float64 default, so code that constructs them directly stays on the
    exact reference path.
    """

    _fitted_attr = "model_"
    _state_scalars = ("n_classes_",)
    _state_estimators = ("model_",)

    def __init__(
        self,
        config: ReconstructionConfig | None = None,
        *,
        random_state=None,
    ) -> None:
        self.config = config or ReconstructionConfig()
        self.random_state = random_state
        self.model_ = None
        self.n_classes_: int | None = None

    def _build(self):
        cfg = self.config
        common = dict(
            hidden_size=cfg.hidden_size,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            lr=cfg.lr,
            weight_decay=cfg.weight_decay,
            dtype=cfg.dtype,
            random_state=self.random_state,
        )
        if cfg.strategy == "gan":
            return ConditionalGAN(noise_dim=cfg.noise_dim, conditional=True, **common)
        if cfg.strategy == "nocond":
            return ConditionalGAN(noise_dim=cfg.noise_dim, conditional=False, **common)
        if cfg.strategy == "vae":
            return ConditionalVAE(latent_dim=cfg.noise_dim, **common)
        if cfg.strategy == "autoencoder":
            return VanillaAutoencoder(**common)
        raise ValidationError(f"unknown strategy {cfg.strategy!r}")

    def fit(self, X_inv, X_var, y=None, *, hooks=None) -> "VariantReconstructor":
        """Train the reconstruction model on source-domain blocks.

        ``y`` (integer labels) is required for the conditional GAN
        (discriminator conditioning, Eq. 7) and ignored by the others.
        ``hooks`` is forwarded to the underlying training loop as per-epoch
        telemetry callbacks (see :mod:`repro.obs.hooks`).
        """
        X_inv = check_array(X_inv, name="X_inv")
        X_var = check_array(X_var, name="X_var")
        if X_var.shape[1] == 0:
            # nothing to reconstruct — degenerate but legal (no drift found)
            self.model_ = _IdentityReconstructor(0)
            return self
        y_onehot = None
        if self.config.strategy == "gan":
            if y is None:
                raise ValidationError("the conditional GAN strategy requires labels y")
            y = np.asarray(y, dtype=np.int64)
            if y.shape != (X_inv.shape[0],):
                raise ValidationError("y must be a 1-D label vector matching X_inv")
            y_onehot = one_hot(y)
            self.n_classes_ = y_onehot.shape[1]
        self.model_ = self._build()
        with get_tracer().span(
            "reconstruction.fit",
            strategy=self.config.strategy,
            n_samples=X_inv.shape[0],
            n_invariant=X_inv.shape[1],
            n_variant=X_var.shape[1],
            epochs=self.config.epochs,
        ):
            self.model_.fit(X_inv, X_var, y_onehot, hooks=hooks)
        return self

    def reconstruct(self, X_inv, *, n_draws: int = 1, random_state=None) -> np.ndarray:
        """Generate source-like variant features for the given invariant block."""
        check_is_fitted(self, "model_")
        return self.model_.generate(X_inv, n_draws=n_draws, random_state=random_state)


@register_estimator("identity_reconstructor")
class _IdentityReconstructor(Estimator):
    """Placeholder used when the variant set is empty."""

    def __init__(self, n_variant: int = 0) -> None:
        self.n_variant = n_variant

    def generate(self, X_inv, *, n_draws: int = 1, random_state=None) -> np.ndarray:
        X_inv = check_array(X_inv, name="X_inv")
        return np.zeros((X_inv.shape[0], self.n_variant))

"""Configuration dataclasses for the FS / FS+GAN pipeline.

Defaults follow §V-C3 of the paper scaled to CPU budgets; the ``paper()``
constructors return the exact published settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from repro.utils.errors import ConfigurationError

RECONSTRUCTION_STRATEGIES = ("gan", "nocond", "vae", "autoencoder")


@dataclass(frozen=True)
class FSConfig:
    """Feature-separation settings (§V-A): the one parameter surface of
    :class:`~repro.causal.FNodeDiscovery`, validated here.

    ``alpha`` is the CI-test significance level (a feature is variant when
    every tested subset gives ``p < alpha``); ``max_parents`` the number of
    top source-correlated candidate conditioners of each ``X ⊥ F | Pa(X)``
    test; ``max_cond_size`` the largest conditioning subset tried (PC's
    depth limit); ``min_correlation`` the absolute source correlation a
    candidate must reach.

    ``n_jobs`` is the worker-process count for the CI subset search.  The
    only accepted values are positive integers and ``-1``, which means "one
    worker per available CPU core" (``os.cpu_count()``); ``0``, other
    negative values, bools and non-integers are rejected at construction.
    Parallel results are bit-identical to the serial path, and workers
    receive the matrices zero-copy via shared memory when
    ``use_shared_memory`` is set (with an automatic result-identical
    pickling fallback).

    Wide-scale controls: ``prune_k`` caps each feature's primary
    conditioning-candidate pool at the top-k candidates by
    marginal-association effect size; ``prune_exact=True`` searches the
    full pool as a fallback when the primary pool never separates the
    feature, so variant decisions equal the unpruned search
    (``prune_exact=False`` skips it and can only over-report).
    ``budget`` / ``budget_seconds`` bound the conditional-test count /
    wall-clock of an anytime search: features run closest-to-clearing
    first, a larger budget's variant set is a subset of a smaller one's,
    budgeted runs are serial, and the searched fraction is reported as
    ``FNodeResult.coverage``.  ``stats_dtype="float32"`` runs the
    statistics path in single precision with float64 re-verification of
    p-values within ``alpha / 2`` of ``alpha`` (variant decisions match
    float64).

    ``warm_mode`` controls how a refit uses the previous run's
    :class:`~repro.causal.warm.WarmState` (persistent CI-statistics cache +
    decision priors): ``"exact"`` (default) reuses it under guards that
    keep the variant set identical to a cold run's, ``"off"`` always runs
    cold.  Cold fits are unaffected; the mode only applies when a warm
    state is available (e.g. ``FSGANPipeline.refit_adapter``).
    """

    alpha: float = 0.01
    max_parents: int = 5
    max_cond_size: int = 2
    min_correlation: float = 0.2
    n_jobs: int = 1
    prune_k: int | None = None
    prune_exact: bool = True
    budget: int | None = None
    budget_seconds: float | None = None
    stats_dtype: str = "float64"
    use_shared_memory: bool = True
    warm_mode: str = "exact"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must be in (0, 1)")
        if self.max_parents < 0:
            raise ConfigurationError("max_parents must be >= 0")
        if self.max_cond_size < 0:
            raise ConfigurationError("max_cond_size must be >= 0")
        if not 0.0 <= self.min_correlation <= 1.0:
            raise ConfigurationError("min_correlation must be in [0, 1]")
        if (
            isinstance(self.n_jobs, bool)
            or not isinstance(self.n_jobs, Integral)
            or (self.n_jobs != -1 and self.n_jobs < 1)
        ):
            raise ConfigurationError(
                "n_jobs must be an integer >= 1 or -1 (all cores); 0, "
                "negative values other than -1, bools and non-integers are "
                f"invalid, got {self.n_jobs!r}"
            )
        if self.prune_k is not None and self.prune_k < 1:
            raise ConfigurationError("prune_k must be a positive int or None")
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError("budget must be >= 0 or None")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ConfigurationError("budget_seconds must be > 0 or None")
        if self.stats_dtype not in ("float64", "float32"):
            raise ConfigurationError(
                f"stats_dtype must be 'float64' or 'float32', got {self.stats_dtype!r}"
            )
        if self.warm_mode not in ("off", "exact"):
            raise ConfigurationError(
                f"warm_mode must be 'off' or 'exact', got {self.warm_mode!r}"
            )


@dataclass(frozen=True)
class ReconstructionConfig:
    """Reconstruction settings (§V-C).

    ``strategy`` selects the Table II variant: ``"gan"`` (FS+GAN),
    ``"nocond"`` (FS+NoCond — discriminator not conditioned on the label),
    ``"vae"`` (FS+VAE) or ``"autoencoder"`` (FS+VanillaAE).
    ``dtype`` selects the compute dtype the reconstruction network trains
    and serves in: ``"float32"`` (default; the paper's PyTorch cGAN computed
    in float32) or ``"float64"`` (the exact reference path; float64 cGAN
    training is bit-identical to ``tests/oracles/nn_reference.py``).  Noise
    and dropout draws come from the float64 RNG stream at either dtype, and
    a compiled plan is bit-identical to the pipeline at both.
    """

    strategy: str = "gan"
    noise_dim: int = 16
    hidden_size: int = 128
    epochs: int = 150
    batch_size: int = 64
    lr: float = 2e-4
    weight_decay: float = 1e-6
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.strategy not in RECONSTRUCTION_STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {RECONSTRUCTION_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.noise_dim < 1 or self.hidden_size < 1:
            raise ConfigurationError("noise_dim and hidden_size must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.dtype not in ("float64", "float32"):
            raise ConfigurationError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}"
            )

    @classmethod
    def paper_5gc(cls) -> "ReconstructionConfig":
        """Published 5GC settings: noise 30, hidden 256, 500 epochs."""
        return cls(noise_dim=30, hidden_size=256, epochs=500)

    @classmethod
    def paper_5gipc(cls) -> "ReconstructionConfig":
        """Published 5GIPC settings: noise 15, hidden 128, 500 epochs."""
        return cls(noise_dim=15, hidden_size=128, epochs=500)

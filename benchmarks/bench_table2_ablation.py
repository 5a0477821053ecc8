"""Table II: reconstruction-strategy ablation (FS+GAN / NoCond / VAE / AE).

Regenerates the paper's ablation with the TNet classifier on both datasets.
Shape target (fast/paper): the conditional GAN leads the deterministic
autoencoder (the paper's ordering GAN > NoCond > VAE ≥ VanillaAE, of which
the endpoints are the statistically robust pair).
The ordering is asserted only outside the smoke preset: the autoencoder
converges within tens of epochs and the cGAN catches up only near 300
(EXPERIMENTS.md, Table II), so at short budgets the autoencoder leads.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import assert_shape
from repro.experiments import format_ablation, run_ablation


def _mean(results, method):
    return float(np.mean([c.f1_mean for c in results if c.method == method]))


@pytest.mark.parametrize("dataset", ["5gc", "5gipc"])
def test_table2_ablation(benchmark, preset, dataset):
    results = benchmark.pedantic(
        lambda: run_ablation(dataset, preset=preset, model="TNet"),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_ablation(results, dataset=dataset.upper()))

    strict = preset.name != "smoke"
    gan = _mean(results, "FS+GAN")
    ae = _mean(results, "FS+VanillaAE")
    assert_shape(
        gan >= ae - 0.01,
        "conditional GAN must lead the vanilla autoencoder",
        strict=strict,
    )
    # every strategy must be far above random for a 16-class / binary task
    floor = 2.0 / 16 if dataset == "5gc" else 0.4
    for method in ("FS+GAN", "FS+NoCond", "FS+VAE", "FS+VanillaAE"):
        assert_shape(
            _mean(results, method) > floor,
            f"{method} must beat the random floor",
            strict=strict,
        )

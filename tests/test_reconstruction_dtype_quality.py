"""Quality guard for the float32 default of ``ReconstructionConfig.dtype``.

At a reduced 5GC shape (the smoke preset's 480 source rows and 70 features,
10 target shots) over seeds 0-2, one FS split and one downstream model per
seed are shared by three reconstruction arms, retrained through
``refit_reconstruction``: the default float32 cGAN, an explicit float64
cGAN and the default-dtype vanilla autoencoder.  The float32 mean target
macro-F1 may trail the float64 mean by at most 0.03, and Table II's
GAN >= VanillaAE ordering must hold under the default dtype.  The cGAN uses
a short, fast-converging schedule (150 epochs, hidden 32, batch 32,
lr 2e-3) to stay near 20 s; at this shape the default lr of 2e-4 leaves the
cGAN undertrained and behind the autoencoder.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import FSGANPipeline, ReconstructionConfig
from repro.datasets.fivegc import FiveGCConfig, make_5gc
from repro.ml import MLPClassifier
from repro.ml.metrics import macro_f1

SEEDS = (0, 1, 2)
SHOTS = 10


@pytest.fixture(scope="module")
def arm_f1s():
    f1s = {"float32": [], "float64": [], "autoencoder": []}
    for seed in SEEDS:
        bench = make_5gc(
            FiveGCConfig(n_source=480, n_target=360, feature_scale=0.15),
            random_state=seed,
        )
        X_few, _, X_test, y_test = bench.few_shot_split(SHOTS, random_state=seed)
        config = ReconstructionConfig(
            epochs=150, hidden_size=32, noise_dim=8, batch_size=32, lr=2e-3)
        pipe = FSGANPipeline(
            lambda: MLPClassifier(epochs=30, random_state=seed),
            reconstruction_config=config,
            random_state=seed,
        ).fit(bench.X_source, bench.y_source, X_few)
        assert pipe.reconstructor_.model_.dtype == "float32"
        f1s["float32"].append(macro_f1(y_test, pipe.predict(X_test)))
        for arm, arm_config in (
            ("float64", replace(config, dtype="float64")),
            ("autoencoder", replace(config, strategy="autoencoder")),
        ):
            pipe.reconstruction_config = arm_config
            pipe.refit_reconstruction()
            f1s[arm].append(macro_f1(y_test, pipe.predict(X_test)))
    return {arm: float(np.mean(values)) for arm, values in f1s.items()}


def test_float32_default_within_003_of_float64(arm_f1s):
    assert arm_f1s["float32"] >= arm_f1s["float64"] - 0.03, arm_f1s


def test_gan_leads_vanilla_autoencoder_under_default(arm_f1s):
    assert arm_f1s["float32"] >= arm_f1s["autoencoder"], arm_f1s

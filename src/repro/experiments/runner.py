"""Experiment runner regenerating the paper's tables.

The runner exploits the structure of the paper's own protocol to avoid
redundant work: the FS separation and the GAN depend only on
``(dataset, shots, repeat)`` — not on the downstream model — and the
full-feature source-trained models depend only on the dataset.  Those
artifacts are computed once and shared across the Table I grid, exactly as
§VI-D describes ("The FS algorithm and GAN training are performed once and
reused").
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.registry import (
    MODEL_AGNOSTIC_METHODS,
    MODEL_SPECIFIC_METHODS,
    build_method,
)
from repro.causal.engine import resolve_n_jobs
from repro.causal.fnode import FNodeDiscovery
from repro.core.config import FSConfig, ReconstructionConfig
from repro.core.feature_separation import FeatureSeparator
from repro.core.reconstruction import VariantReconstructor
from repro.datasets.fivegc import make_5gc
from repro.datasets.fivegipc import make_5gipc
from repro.datasets.scm import DriftBenchmark
from repro.experiments.models import MODEL_NAMES, model_factories
from repro.experiments.presets import ExperimentPreset, get_preset
from repro.ml.metrics import macro_f1
from repro.ml.preprocessing import MinMaxScaler
from repro.obs.export import get_event_log
from repro.obs.logging import get_logger
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError

_logger = get_logger("repro.experiments.runner")


def _cell_finished(kind: str, cell: "CellResult") -> None:
    """Per-cell progress: one log line + one structured event per grid cell."""
    _logger.info(
        "%s cell method=%s model=%s shots=%d f1=%.3f (%.2f s)",
        kind, cell.method, cell.model, cell.shots, cell.f1_mean, cell.seconds,
    )
    get_event_log().emit(
        f"runner.{kind}_cell",
        dataset=cell.dataset,
        method=cell.method,
        model=cell.model,
        shots=cell.shots,
        f1_mean=cell.f1_mean,
        seconds=cell.seconds,
    )


@dataclass
class CellResult:
    """One Table I cell: a (method, model, shots) combination."""

    dataset: str
    method: str
    model: str
    shots: int
    scores: list[float] = field(default_factory=list)
    n_variant: list[int] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def f1_mean(self) -> float:
        return float(np.mean(self.scores)) if self.scores else float("nan")

    @property
    def f1_std(self) -> float:
        return float(np.std(self.scores)) if self.scores else float("nan")


def make_benchmark(dataset: str, preset: ExperimentPreset, *, random_state=0) -> DriftBenchmark:
    """Build the configured drift benchmark for ``dataset`` ∈ {5gc, 5gipc}."""
    key = dataset.strip().lower()
    if key == "5gc":
        return make_5gc(preset.fivegc, random_state=random_state)
    if key == "5gipc":
        return make_5gipc(preset.fivegipc, random_state=random_state)
    raise ValidationError(f"unknown dataset {dataset!r}; use '5gc' or '5gipc'")


class SharedArtifacts:
    """Caches the model-independent pieces of the Table I grid.

    With ``n_jobs > 1``, :meth:`prebuild` computes the per-``(shots,
    repeat)`` artifacts — FS separations and, optionally, reconstruction
    models — across a process pool before the grid loop starts; the lazy
    accessors then serve cache hits.  Workers return plain picklable
    results, so parallel prebuilds reproduce the serial artifacts exactly
    (CI-test metrics/events recorded inside workers are not propagated —
    use ``n_jobs=1`` or ``FSConfig(n_jobs=...)`` for full FS telemetry).
    """

    def __init__(self, bench: DriftBenchmark, preset: ExperimentPreset,
                 *, random_state: int = 0, n_jobs: int = 1) -> None:
        self.bench = bench
        self.preset = preset
        self.random_state = random_state
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.fs_config = FSConfig()
        self.scaler = MinMaxScaler().fit(bench.X_source)
        self.Xs = self.scaler.transform(bench.X_source)
        self._full_models: dict[str, object] = {}
        self._separations: dict[tuple, FeatureSeparator] = {}
        self._reconstructors: dict[tuple, VariantReconstructor] = {}
        self._splits: dict[tuple, tuple] = {}
        self._factories = model_factories(preset, random_state=random_state)

    def prebuild(self, shots_list=None, *, strategies: tuple[str, ...] = ()) -> None:
        """Fill the (shots, repeat) artifact caches with a process pool.

        No-op when ``n_jobs == 1`` or everything is already cached.  Each
        worker runs FS discovery (and GAN/VAE/AE training for ``strategies``)
        with the same configs and seeds as the lazy serial path, so the
        cached artifacts are identical either way.
        """
        if self.n_jobs <= 1:
            return
        shots_list = tuple(shots_list) if shots_list is not None else self.preset.shots
        tasks = []
        for shots in shots_list:
            for repeat in range(self.preset.repeats):
                need = tuple(
                    s for s in strategies
                    if (shots, repeat, s) not in self._reconstructors
                )
                if need or (shots, repeat) not in self._separations:
                    X_few, _, _, _ = self.split(shots, repeat)
                    tasks.append((
                        shots, repeat, self.scaler.transform(X_few), need,
                        self.random_state + repeat,
                    ))
        if not tasks:
            return
        rec_params = {
            "noise_dim": self.preset.gan_noise_dim,
            "hidden_size": self.preset.gan_hidden,
            "epochs": self.preset.gan_epochs,
        }
        with get_tracer().span(
            "runner.prebuild", n_tasks=len(tasks), n_jobs=self.n_jobs
        ):
            with ProcessPoolExecutor(
                max_workers=min(self.n_jobs, len(tasks)),
                initializer=_init_artifact_worker,
                initargs=(self.Xs, self.bench.y_source, self.fs_config, rec_params),
            ) as pool:
                for shots, repeat, result, recs in pool.map(
                    _build_artifacts_worker, tasks
                ):
                    self._separations.setdefault(
                        (shots, repeat),
                        FeatureSeparator.from_result(
                            result, self.Xs.shape[1], self.fs_config
                        ),
                    )
                    for strategy, rec in recs.items():
                        self._reconstructors[(shots, repeat, strategy)] = rec

    def split(self, shots: int, repeat: int) -> tuple:
        """Few-shot split for (shots, repeat); cached."""
        key = (shots, repeat)
        if key not in self._splits:
            self._splits[key] = self.bench.few_shot_split(
                shots, random_state=1000 * shots + repeat + self.random_state
            )
        return self._splits[key]

    def full_model(self, model: str):
        """Source-trained model with all features (SrcOnly / FS+GAN backbone)."""
        if model not in self._full_models:
            clf = self._factories[model]()
            clf.fit(self.Xs, self.bench.y_source)
            self._full_models[model] = clf
        return self._full_models[model]

    def separation(self, shots: int, repeat: int) -> FeatureSeparator:
        """FS separation for (shots, repeat); cached."""
        key = (shots, repeat)
        if key not in self._separations:
            X_few, _, _, _ = self.split(shots, repeat)
            sep = FeatureSeparator(self.fs_config)
            sep.fit(self.Xs, self.scaler.transform(X_few))
            self._separations[key] = sep
        return self._separations[key]

    def reconstructor(self, shots: int, repeat: int,
                      strategy: str = "gan") -> VariantReconstructor:
        """Reconstruction model for (shots, repeat, strategy); cached."""
        key = (shots, repeat, strategy)
        if key not in self._reconstructors:
            sep = self.separation(shots, repeat)
            X_inv, X_var = sep.split(self.Xs)
            rec = VariantReconstructor(
                ReconstructionConfig(
                    strategy=strategy,
                    noise_dim=self.preset.gan_noise_dim,
                    hidden_size=self.preset.gan_hidden,
                    epochs=self.preset.gan_epochs,
                ),
                random_state=self.random_state + repeat,
            )
            rec.fit(X_inv, X_var, self.bench.y_source)
            self._reconstructors[key] = rec
        return self._reconstructors[key]

    def fs_predict(self, model: str, shots: int, repeat: int) -> np.ndarray:
        """FS arm: train ``model`` on source invariant features, predict test."""
        sep = self.separation(shots, repeat)
        _, _, X_test, _ = self.split(shots, repeat)
        inv = sep.invariant_indices_
        clf = self._factories[model]()
        clf.fit(self.Xs[:, inv], self.bench.y_source)
        return clf.predict(self.scaler.transform(X_test)[:, inv])

    def fsgan_predict(self, model: str, shots: int, repeat: int,
                      strategy: str = "gan") -> np.ndarray:
        """FS+reconstruction arm (Eqs. 10–12) with the cached artifacts."""
        sep = self.separation(shots, repeat)
        rec = self.reconstructor(shots, repeat, strategy)
        _, _, X_test, _ = self.split(shots, repeat)
        Xt = self.scaler.transform(X_test)
        X_inv, _ = sep.split(Xt)
        X_var_hat = rec.reconstruct(X_inv)
        X_hat = sep.merge(X_inv, X_var_hat)
        return self.full_model(model).predict(X_hat)

    def srconly_predict(self, model: str, shots: int, repeat: int) -> np.ndarray:
        """SrcOnly arm: the full source model applied to raw drifted data."""
        _, _, X_test, _ = self.split(shots, repeat)
        return self.full_model(model).predict(self.scaler.transform(X_test))


# ---------------------------------------------------------------------------
# process-pool plumbing for SharedArtifacts.prebuild: the source matrix and
# configs ship once per worker (initializer), each task only carries its
# few-shot slice

_ARTIFACT_CTX: dict = {}


def _init_artifact_worker(Xs, y_source, fs_config, rec_params) -> None:
    _ARTIFACT_CTX["Xs"] = Xs
    _ARTIFACT_CTX["y_source"] = y_source
    _ARTIFACT_CTX["fs_config"] = fs_config
    _ARTIFACT_CTX["rec_params"] = rec_params


def _build_artifacts_worker(task):
    """One (shots, repeat): FS discovery plus the requested reconstructors."""
    shots, repeat, X_few_scaled, strategies, seed = task
    cfg = _ARTIFACT_CTX["fs_config"]
    Xs = _ARTIFACT_CTX["Xs"]
    result = FNodeDiscovery(cfg).discover(Xs, X_few_scaled)
    recs = {}
    if strategies:
        sep = FeatureSeparator.from_result(result, Xs.shape[1], cfg)
        X_inv, X_var = sep.split(Xs)
        for strategy in strategies:
            rec = VariantReconstructor(
                ReconstructionConfig(strategy=strategy, **_ARTIFACT_CTX["rec_params"]),
                random_state=seed,
            )
            rec.fit(X_inv, X_var, _ARTIFACT_CTX["y_source"])
            recs[strategy] = rec
    return shots, repeat, result, recs


def run_table1(
    dataset: str = "5gc",
    *,
    preset: str | ExperimentPreset | None = None,
    methods: tuple[str, ...] | None = None,
    models: tuple[str, ...] | None = None,
    random_state: int = 0,
    n_jobs: int = 1,
) -> list[CellResult]:
    """Run the Table I grid for one dataset.

    Returns one :class:`CellResult` per (method, model, shots) combination
    (model-specific methods get a single pseudo-model column, as in the
    paper's merged cells).  ``n_jobs > 1`` prebuilds the shared FS/GAN
    artifacts across a process pool before the grid loop.
    """
    preset = preset if isinstance(preset, ExperimentPreset) else get_preset(preset)
    methods = tuple(m.lower() for m in (methods or (MODEL_AGNOSTIC_METHODS + MODEL_SPECIFIC_METHODS)))
    models = tuple(models or MODEL_NAMES)
    bench = make_benchmark(dataset, preset, random_state=random_state)
    shared = SharedArtifacts(bench, preset, random_state=random_state, n_jobs=n_jobs)
    if {"fs", "fs+gan"} & set(methods):
        shared.prebuild(
            preset.shots,
            strategies=("gan",) if "fs+gan" in methods else (),
        )
    factories = model_factories(preset, random_state=random_state)
    results: list[CellResult] = []

    tracer = get_tracer()
    for method in methods:
        is_specific = method in MODEL_SPECIFIC_METHODS
        method_models = ("-",) if is_specific else models
        for model in method_models:
            for shots in preset.shots:
                cell = CellResult(dataset=dataset, method=method, model=model, shots=shots)
                t0 = time.time()
                with tracer.span(
                    "runner.cell", method=method, model=model, shots=shots
                ):
                    for repeat in range(preset.repeats):
                        X_few, y_few, X_test, y_test = shared.split(shots, repeat)
                        if method == "srconly":
                            y_pred = shared.srconly_predict(model, shots, repeat)
                        elif method == "fs":
                            y_pred = shared.fs_predict(model, shots, repeat)
                            cell.n_variant.append(shared.separation(shots, repeat).n_variant_)
                        elif method == "fs+gan":
                            y_pred = shared.fsgan_predict(model, shots, repeat)
                            cell.n_variant.append(shared.separation(shots, repeat).n_variant_)
                        else:
                            kwargs = _method_kwargs(method, preset)
                            approach = build_method(
                                method,
                                None if is_specific else factories[model],
                                random_state=random_state + repeat,
                                **kwargs,
                            )
                            approach.fit(bench.X_source, bench.y_source, X_few, y_few)
                            y_pred = approach.predict(X_test)
                        cell.scores.append(macro_f1(y_test, y_pred))
                cell.seconds = time.time() - t0
                _cell_finished("table1", cell)
                results.append(cell)
    return results


def _method_kwargs(method: str, preset: ExperimentPreset) -> dict:
    """Per-method budget overrides derived from the preset."""
    if method in ("dann", "scl"):
        return {"epochs": preset.baseline_epochs}
    if method in ("matchnet", "protonet"):
        return {"episodes": preset.episodes}
    if method == "fine-tune":
        return {
            "epochs": preset.baseline_epochs,
            "fine_tune_epochs": preset.baseline_epochs,
        }
    return {}


def run_ablation(
    dataset: str = "5gc",
    *,
    preset: str | ExperimentPreset | None = None,
    model: str = "TNet",
    strategies: tuple[str, ...] = ("gan", "nocond", "vae", "autoencoder"),
    random_state: int = 0,
    n_jobs: int = 1,
) -> list[CellResult]:
    """Table II: reconstruction-strategy ablation with one classifier."""
    preset = preset if isinstance(preset, ExperimentPreset) else get_preset(preset)
    bench = make_benchmark(dataset, preset, random_state=random_state)
    shared = SharedArtifacts(bench, preset, random_state=random_state, n_jobs=n_jobs)
    shared.prebuild(preset.shots, strategies=strategies)
    label = {"gan": "FS+GAN", "nocond": "FS+NoCond", "vae": "FS+VAE",
             "autoencoder": "FS+VanillaAE"}
    results = []
    tracer = get_tracer()
    for strategy in strategies:
        for shots in preset.shots:
            cell = CellResult(dataset=dataset, method=label[strategy],
                              model=model, shots=shots)
            t0 = time.time()
            with tracer.span("runner.cell", strategy=strategy, shots=shots):
                for repeat in range(preset.repeats):
                    _, _, X_test, y_test = shared.split(shots, repeat)
                    y_pred = shared.fsgan_predict(model, shots, repeat, strategy=strategy)
                    cell.scores.append(macro_f1(y_test, y_pred))
            cell.seconds = time.time() - t0
            _cell_finished("ablation", cell)
            results.append(cell)
    return results

"""The paper's primary contribution: causal feature separation (FS) and
GAN-based variant-feature reconstruction, composed into model-agnostic
domain-adaptation pipelines.

Attribute access is lazy (PEP 562): leaf modules such as
:mod:`repro.core.estimator` are importable without pulling in the whole
pipeline stack, which lets every model family depend on the Estimator
protocol without import cycles.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "RECONSTRUCTION_STRATEGIES": "repro.core.config",
    "FSConfig": "repro.core.config",
    "ReconstructionConfig": "repro.core.config",
    "Estimator": "repro.core.estimator",
    "register_estimator": "repro.core.estimator",
    "registered_kinds": "repro.core.estimator",
    "get_estimator_class": "repro.core.estimator",
    "FeatureSeparator": "repro.core.feature_separation",
    "DriftMonitor": "repro.core.monitor",
    "DriftReport": "repro.core.monitor",
    "FSGANPipeline": "repro.core.pipeline",
    "FSModel": "repro.core.pipeline",
    "VariantReconstructor": "repro.core.reconstruction",
    "ARTIFACT_SCHEMA_VERSION": "repro.core.artifacts",
    "ArtifactStore": "repro.core.artifacts",
    "LoadedArtifact": "repro.core.artifacts",
    "load_artifact": "repro.core.artifacts",
    "save_artifact": "repro.core.artifacts",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static-analysis aid only
    from repro.core.artifacts import (
        ARTIFACT_SCHEMA_VERSION,
        ArtifactStore,
        LoadedArtifact,
        load_artifact,
        save_artifact,
    )
    from repro.core.config import (
        RECONSTRUCTION_STRATEGIES,
        FSConfig,
        ReconstructionConfig,
    )
    from repro.core.estimator import (
        Estimator,
        get_estimator_class,
        register_estimator,
        registered_kinds,
    )
    from repro.core.feature_separation import FeatureSeparator
    from repro.core.monitor import DriftMonitor, DriftReport
    from repro.core.pipeline import FSGANPipeline, FSModel
    from repro.core.reconstruction import VariantReconstructor


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

"""The core needs numpy and scipy, serving needs numpy only, networkx is optional.

Only ``CausalGraph.to_networkx`` uses networkx, so importing the core,
the serving daemon and the CLI must work in an environment without it.
scipy computes the CI-test statistics and is imported by the functions
that compute them: importing the package, the CLI and the serving daemon
must work without it, and a daemon must answer bit-identically to
per-request replay.  Feature separation loads ``scipy.special`` and
``scipy.linalg`` only, never ``scipy.stats``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: run in a fresh interpreter where ``import networkx`` raises ImportError
WITHOUT_NETWORKX = """
import runpy
import sys

sys.modules["networkx"] = None
import repro.core
import repro.serve

sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
try:
    import networkx  # noqa: F401
except ImportError:
    print("networkx blocked")
"""

#: fresh interpreter, nothing blocked: scipy stays unloaded until the first
#: feature separation, which loads scipy.special and scipy.linalg but not
#: scipy.stats, nor does a warm re-discovery or a pipeline fit; one
#: smoke-shape tenant is fitted and saved under ``argv[1]`` with a few rows
#: to score
FIT_AND_SAVE = """
import sys

import numpy as np

import repro
assert "scipy" not in sys.modules, "import repro loaded scipy"
from repro.core import FeatureSeparator, FSGANPipeline, ReconstructionConfig
from repro.core.artifacts import save_artifact
from repro.experiments.presets import get_preset
from repro.experiments.runner import make_benchmark
from repro.ml import MLPClassifier

root = sys.argv[1]
preset = get_preset("smoke")
bench = make_benchmark("5gc", preset, random_state=0)
X_few, _, X_test, _ = bench.few_shot_split(10, random_state=0)
assert "scipy" not in sys.modules, "building the benchmark loaded scipy"
FeatureSeparator().fit(bench.X_source, X_few)
assert "scipy.special" in sys.modules, "feature separation ran without scipy.special"
assert "scipy.linalg" in sys.modules, "feature separation ran without scipy.linalg"
assert "scipy.stats" not in sys.modules, "feature separation loaded scipy.stats"
pipeline = FSGANPipeline(
    lambda: MLPClassifier(epochs=5, random_state=0),
    reconstruction_config=ReconstructionConfig(
        epochs=3, noise_dim=preset.gan_noise_dim, hidden_size=preset.gan_hidden),
    random_state=0,
).fit(bench.X_source, bench.y_source, X_few)
assert "scipy.stats" not in sys.modules, "a pipeline fit loaded scipy.stats"
save_artifact(pipeline, root + "/tenant-00.npz")
np.save(root + "/rows.npy", X_test[:8])
assert pipeline.separator_.warm_state_ is not None
pipeline.rediscover_fs(X_test[:10])
assert "scipy.stats" not in sys.modules, "a warm re-discovery loaded scipy.stats"
print("fitted")
"""

#: fresh interpreter where ``import scipy`` raises ImportError: import the
#: package, run the CLI help, serve a saved tenant over HTTP, replay it
WITHOUT_SCIPY = """
import json
import runpy
import sys
import urllib.request

sys.modules["scipy"] = None
import repro
import repro.core
import repro.serve

root = sys.argv[1]
for argv in (["repro", "--help"], ["repro", "serve", "--help"]):
    sys.argv = argv
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code in (0, None), (argv, exc.code)

import numpy as np

from repro.experiments.loadgen import replay_capture
from repro.serve import DaemonConfig, ServeDaemon

rows = np.load(root + "/rows.npy")
config = DaemonConfig(root=root, port=0)
with ServeDaemon(config) as daemon:
    request = urllib.request.Request(
        daemon.url + "/v1/score/tenant-00",
        data=json.dumps({"x": rows.tolist()}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        answer = json.loads(resp.read())
proba = np.asarray(answer["proba"], dtype=np.float64)
assert proba.shape[0] == rows.shape[0], proba.shape
capture = [("tenant-00", answer["seq"], rows, proba)]
diff = replay_capture(root, capture, micro_batch_rows=config.micro_batch_rows,
                      n_draws=config.n_draws)
assert diff == 0.0, diff
assert sys.modules["scipy"] is None
print("served without scipy: max|diff| =", diff)
"""


def _run(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )


def test_imports_and_cli_help_without_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NETWORKX],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: repro" in proc.stdout
    assert proc.stdout.rstrip().endswith("networkx blocked")


def test_scipy_loads_at_first_fit_and_serving_runs_without_it(tmp_path):
    fit = _run(FIT_AND_SAVE, str(tmp_path))
    assert fit.returncode == 0, fit.stderr
    assert fit.stdout.rstrip().endswith("fitted")

    proc = _run(WITHOUT_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "usage: repro serve" in proc.stdout
    assert proc.stdout.rstrip().endswith(
        "served without scipy: max|diff| = 0.0")

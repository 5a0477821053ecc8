"""Padded execution in fixed 16-row tiles.

A capacity-bounded ``InferencePlan.execute`` pads its live rows to the next
multiple of ``ROW_TILE`` (not to the capacity), and the inference ``Dense``
forward runs one GEMM per 16-row slice.  Together they keep the daemon's
contract: a coalesced micro-batch is bit-identical to scoring each request
alone, whatever the partition, capacity, dtype, draw count or
reconstructor.  The workspace pool holds one grow-only buffer per stage,
so serving every row count costs no more buffers than the largest one.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FSGANPipeline, ReconstructionConfig
from repro.ml import MLPClassifier
from repro.nn import Dense, Workspace
from repro.nn.layers import ROW_TILE
from repro.obs.trace import Tracer, use_tracer
from repro.serve.plan import padded_rows

#: (strategy, reconstruction dtype, n_draws)
CONFIGS = [
    ("gan", "float64", 1),
    ("gan", "float64", 3),
    ("gan", "float32", 1),
    ("gan", "float32", 3),
    ("vae", "float64", 1),
    ("autoencoder", "float64", 1),
]


@pytest.fixture(scope="module")
def pipelines(tiny_5gc):
    """Fitted tiny pipelines per (strategy, dtype), plus 256+ scoring rows."""
    X_few, _, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
    assert X_test.shape[0] >= 256
    fitted = {}
    for strategy, dtype in {(s, d) for s, d, _ in CONFIGS}:
        fitted[strategy, dtype] = FSGANPipeline(
            lambda: MLPClassifier(hidden_sizes=(16,), epochs=8,
                                  random_state=0),
            reconstruction_config=ReconstructionConfig(
                strategy=strategy, epochs=2, noise_dim=3, hidden_size=8,
                dtype=dtype),
            random_state=0,
        ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
    return fitted, X_test


def _partition(sizes, capacity):
    """The longest prefix of ``sizes`` whose total fits ``capacity``."""
    kept, total = [], 0
    for n in sizes:
        if total + n > capacity:
            break
        kept.append(n)
        total += n
    return kept


def _networks(plan):
    """Every Sequential the plan runs: the reconstructor's and the model's."""
    recon = plan._recon
    nets = [getattr(recon, attr) for attr in ("generator_", "decoder_",
                                              "network_")
            if getattr(recon, attr, None) is not None]
    return nets + [plan.model.network_]


def _workspaces(plan):
    found = [plan._ws]
    stack = list(_networks(plan))
    while stack:
        module = stack.pop()
        found.append(module._ws)
        stack.extend(getattr(module, "layers", ()))
    return found


class TestCoalescedBitIdentity:
    @pytest.mark.parametrize("strategy,dtype,n_draws", CONFIGS)
    @settings(max_examples=20, deadline=None)
    @given(capacity=st.sampled_from([100, 256]),
           sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12))
    @example(capacity=100, sizes=[15, 2, 17, 30, 36])
    @example(capacity=256, sizes=[1] * 17)
    def test_coalesced_equals_each_alone(self, pipelines, strategy, dtype,
                                         n_draws, capacity, sizes):
        fitted, X_test = pipelines
        pipe = fitted[strategy, dtype]
        sizes = _partition(sizes, capacity)
        cuts = np.cumsum([0] + sizes)
        segments = [X_test[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        coalesced = pipe.compile(n_draws=n_draws).execute(
            segments, capacity=capacity)
        alone = pipe.compile(n_draws=n_draws)
        for got, seg in zip(coalesced, segments):
            np.testing.assert_array_equal(
                got, alone.execute([seg], capacity=capacity)[0])


class TestPaddedRows:
    def test_rounds_up_to_the_row_tile(self):
        assert ROW_TILE == 16
        assert [padded_rows(m) for m in (1, 15, 16, 17, 100, 256)] == [
            16, 16, 16, 32, 112, 256]

    @pytest.mark.parametrize("sizes", [[1], [5], [16], [9, 8], [100],
                                       [60, 40, 1]])
    def test_execution_runs_the_padded_row_count(self, pipelines, sizes):
        fitted, X_test = pipelines
        plan = fitted["gan", "float64"].compile(n_draws=3)
        cuts = np.cumsum([0] + sizes)
        segments = [X_test[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        tracer = Tracer()
        with use_tracer(tracer):
            out = plan.execute(segments, capacity=256)
        rows = padded_rows(sum(sizes))
        assert [p.shape[0] for p in out] == sizes
        assert tracer.find("serve.batch").tags["padded_rows"] == rows
        chain = plan._chains[rows]
        assert chain.g_in.shape[0] == 3 * rows
        assert chain.merged.shape[0] == rows

    def test_no_capacity_runs_unpadded(self, pipelines):
        fitted, X_test = pipelines
        plan = fitted["gan", "float64"].compile()
        plan.predict_proba(X_test[:5])
        assert list(plan._chains) == [5]
        assert plan._chains[5].merged.shape[0] == 5


class TestDenseRowTiles:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(37, 29), (300, 257)])
    def test_inference_equals_separate_tile_calls(self, rng, dtype, shape):
        layer = Dense(*shape, random_state=0).to(dtype)
        x = rng.standard_normal((3 * ROW_TILE, shape[0])).astype(dtype)
        whole = layer.forward(x, training=False).copy()
        tiles = [layer.forward(x[i:i + ROW_TILE], training=False).copy()
                 for i in range(0, x.shape[0], ROW_TILE)]
        np.testing.assert_array_equal(whole, np.vstack(tiles))

    def test_training_forward_is_one_product(self, rng):
        layer = Dense(300, 257, random_state=0)
        x = rng.standard_normal((3 * ROW_TILE, 300))
        np.testing.assert_array_equal(
            layer.forward(x, training=True),
            np.matmul(x, layer.params["W"]) + layer.params["b"])


class TestWorkspacePrefixViews:
    def test_one_buffer_per_name(self):
        ws = Workspace()
        big = ws.get("x", (256, 7))
        small = ws.get("x", (16, 7))
        mid = ws.get("x", (208, 7))
        assert len(ws) == 1
        assert big.shape == (256, 7)
        assert small.shape == (16, 7) and mid.shape == (208, 7)
        for view in (small, mid):
            assert view.base is big
            assert view.flags.c_contiguous
            assert view.__array_interface__["data"][0] == (
                big.__array_interface__["data"][0])

    def test_grows_once_and_keeps_the_larger_buffer(self):
        ws = Workspace()
        ws.get("x", (16, 3))
        grown = ws.get("x", (48, 3))
        assert len(ws) == 1
        assert ws.get("x", (32, 3)).base is grown
        assert ws.get("x", (48, 3)) is grown

    def test_keyed_by_trailing_shape_and_dtype(self):
        ws = Workspace()
        ws.get("x", (8, 3))
        ws.get("x", (8, 4))
        ws.get("x", (8, 3), np.float32)
        ws.get("x", ())
        assert len(ws) == 4

    def test_every_row_count_costs_no_more_buffers(self, pipelines):
        fitted, X_test = pipelines
        # plans compiled from one pipeline share its networks: give each
        # plan its own copy so the two pools are counted apart
        once = copy.deepcopy(fitted["gan", "float64"]).compile(n_draws=3)
        once.execute([X_test[:200], X_test[200:256]], capacity=256)
        every = copy.deepcopy(fitted["gan", "float64"]).compile(n_draws=3)
        for m in range(1, 257):
            every.execute([X_test[:m]], capacity=256)

        def count(plan):
            pools = _workspaces(plan)
            return (sum(len(ws) for ws in pools),
                    sum(buf.nbytes for ws in pools
                        for buf in ws._bufs.values()))

        assert count(every) <= count(once)


#: runs under one BLAS thread: each row of a 16-row tile, at every position
_ROW_POSITION_SCRIPT = r"""
import json
import numpy as np
from repro.nn import Dense
from repro.nn.layers import ROW_TILE

rng = np.random.default_rng(0)
moved = []
for k in (256, 300, 512):
    layer = Dense(k, 257, random_state=k)
    base = rng.standard_normal((ROW_TILE, k))
    rows = rng.standard_normal((4, k))
    for r, row in enumerate(rows):
        seen = set()
        for pos in range(ROW_TILE):
            tile = base.copy()
            tile[pos] = row
            seen.add(layer.forward(tile, training=False)[pos].tobytes())
        if len(seen) != 1:
            moved.append([k, r, len(seen)])
print(json.dumps(moved))
"""


class TestDenseRowPositionInvariance:
    def test_wide_float64_rows_do_not_depend_on_their_tile_position(self):
        """A float64 inference ``Dense(K, 257)`` under one BLAS thread gives
        a row the same bits at every position of a 16-row tile, so scoring
        a request coalesced with others equals scoring it alone."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", _ROW_POSITION_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        moved = json.loads(proc.stdout.strip().splitlines()[-1])
        assert moved == [], f"(K, row, distinct results): {moved}"

"""BENCHMARK.json stays generated from the catalog."""

import json
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()


def test_every_layer_maps_to_known_metrics_and_workloads():
    workloads = {name for name, _ in catalog.WORKLOADS + catalog.EXTRA_WORKLOADS}
    workloads.add("all")
    figures = set(catalog.WORKLOAD_FIGURES) | {n for n, *_ in catalog.END_TO_END}
    for name, _, better, moves in catalog.PER_LAYER:
        assert better in ("lower", "higher"), name
        for metric, workload in moves:
            assert metric in figures, (name, metric)
            assert workload in workloads, (name, workload)

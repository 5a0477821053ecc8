"""The benchmark's workloads and metrics, and what each layer should move.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/catalog.py > BENCHMARK.json``); a test keeps the two in
step.  The JSON format has no room for per-metric workloads or for the
layer-to-metric map, so those live here: :data:`WORKLOAD_FIGURES` names the
workload-specific end-to-end figures each run prints, and
:data:`PER_LAYER` records, for every layer metric, which end-to-end figure
on which workload it should move.
"""

from __future__ import annotations

import json

RUN_SECONDS = 25

#: (name, why) - the workloads in BENCHMARK.json
WORKLOADS = (
    ("fit-5gc",
     "one offline adaptation (FS, cGAN, compile, score) at the fast 5GC "
     "shape: cGAN/nn training dominates, FS is a small share"),
    ("drift-hop-442",
     "one closed-loop hop at width 442: warm FS rediscovery, lineage I/O, "
     "compile and shadow scoring dominate; the cGAN refit is negligible"),
    ("serve-small",
     "1-8-row requests on 2 keep-alive connections, back to back, then an "
     "open-loop rate ladder from 10 req/s: per-request HTTP, linger and "
     "padding costs dominate"),
)

#: runnable with run.py but left out of BENCHMARK.json: on the unmodified
#: daemon its latency and throughput vary by 30 % or more between seeds
#: (the share of responses held by a delayed ACK changes from run to run),
#: wider than a regression bound of at most 0.25 could hold
EXTRA_WORKLOADS = (
    ("serve-bulk",
     "closed loop of 2 keep-alive clients sending 128-256-row requests: "
     "full batches, so JSON of large bodies and plan arithmetic dominate"),
)

#: bounded metrics, reported by every workload with --trace 0:
#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

#: workload-specific end-to-end figures printed by every run:
#: name -> (unit, better, workloads, why it is not a bounded metric)
WORKLOAD_FIGURES = {
    "fit_s": ("s", "lower", ("fit-5gc",), "equals p50_ms / 1000"),
    "target_f1": ("f1", "higher", ("fit-5gc",),
                  "deterministic per seed; printed, not bounded"),
    "hop_s": ("s", "lower", ("drift-hop-442",), "equals p50_ms / 1000"),
    "detect_batches": ("batches", "lower", ("drift-hop-442",),
                       "a whole count that can read 0"),
    "p50_ms": ("ms", "lower", ("serve-small", "serve-bulk"),
               "bounded metric"),
    "p99_ms": ("ms", "lower", ("serve-small", "serve-bulk"),
               "printed only with >= 1000 samples"),
    "tail_ms": ("ms", "lower", ("all",),
                "highest percentile with 10 samples beyond it; varies by "
                "15-40 % between seeds on hop and serve workloads"),
    "mean_ms": ("ms", "lower", ("all",), "mean operation latency"),
    "open_p50_ms": ("ms", "lower", ("serve-small",),
                    "open-loop base step, timed from due; bimodal on the "
                    "unmodified daemon"),
    "max_rate_rps": ("1/s", "higher", ("serve-small",),
                     "reads 0 while no ladder rate meets the 25 ms limit, "
                     "which the delayed-ACK stall makes a matter of chance"),
    "rows_per_s": ("1/s", "higher", ("serve-bulk",),
                   "closed loop of 2 clients: moves with p50_ms"),
    "failed_frac": ("share", "lower", ("all",),
                    "0 on correct code; the result's failed count"),
    "setup_s": ("s", "lower", ("all",), "bounded metric"),
    "peak_rss_mb": ("MiB", "lower", ("all",), "bounded metric"),
}

FIT, HOP, SMALL, BULK = (w[0] for w in WORKLOADS + EXTRA_WORKLOADS)

#: per-layer metrics (--trace 1): (name, unit, better, [(moves, workload)]).
#: A layer a workload does not run reads 0 on that workload.  ``_s`` rows
#: are self times per operation and add up, with other_s, to trace.op_s.
PER_LAYER = (
    ("causal.discover_s", "s", "lower", [("fit_s", FIT)]),
    ("causal.ci_tests", "count", "lower", [("fit_s", FIT)]),
    ("causal.cold_fit_s", "s", "lower", [("setup_s", HOP)]),
    ("causal.rediscover_s", "s", "lower", [("hop_s", HOP)]),
    ("causal.rediscover_ci_tests", "count", "lower", [("hop_s", HOP)]),
    ("causal.cache_hit_ratio", "ratio", "higher", [("hop_s", HOP)]),
    ("gan.train_s", "s", "lower", [("fit_s", FIT)]),
    ("gan.epochs_per_s", "1/s", "higher", [("fit_s", FIT)]),
    ("gan.refit_s", "s", "lower", [("hop_s", HOP)]),
    ("ml.model_fit_s", "s", "lower", [("fit_s", FIT)]),
    ("serve.plan.compile_s", "s", "lower", [("fit_s", FIT), ("hop_s", HOP)]),
    ("serve.plan.score_s", "s", "lower", [("fit_s", FIT)]),
    ("serve.plan.score_rows_per_s", "1/s", "higher", [("fit_s", FIT)]),
    ("adapt.lineage.publish_s", "s", "lower", [("hop_s", HOP)]),
    ("adapt.lineage.promote_s", "s", "lower", [("hop_s", HOP)]),
    ("adapt.shadow.observe_s", "s", "lower", [("hop_s", HOP)]),
    ("adapt.shadow.batches", "count", "lower", [("hop_s", HOP)]),
    ("obs.drift.self_s", "s", "lower", [("hop_s", HOP)]),
    ("obs.drift.update_ms", "ms", "lower", [("hop_s", HOP)]),
    ("adapt.controller.self_s", "s", "lower", [("hop_s", HOP)]),
    ("serve.server.overhead_ms", "ms", "lower",
     [("p50_ms", SMALL), ("max_rate_rps", SMALL), ("rows_per_s", BULK)]),
    ("serve.server.self_s", "s", "lower",
     [("p50_ms", SMALL), ("rows_per_s", BULK)]),
    ("serve.batcher.queue_p50_ms", "ms", "lower", [("p99_ms", SMALL)]),
    ("serve.batcher.queue_p99_ms", "ms", "lower", [("p99_ms", SMALL)]),
    ("serve.batcher.queue_s", "s", "lower", [("p99_ms", SMALL)]),
    ("serve.batcher.pad_ratio", "ratio", "higher",
     [("max_rate_rps", SMALL)]),
    ("serve.batcher.requests_per_batch", "count", "higher",
     [("max_rate_rps", SMALL)]),
    ("serve.plan.batch_ms", "ms", "lower",
     [("p50_ms", SMALL), ("p50_ms", BULK), ("rows_per_s", BULK)]),
    ("serve.plan.exec_s", "s", "lower", [("p50_ms", SMALL), ("p50_ms", BULK)]),
    ("serve.registry.hit_ratio", "ratio", "higher",
     [("p50_ms", SMALL), ("p50_ms", BULK)]),
    ("loadgen.late_ms", "ms", "lower", [("p50_ms", SMALL)]),
    ("loadgen.late_s", "s", "lower", [("p50_ms", SMALL)]),
    ("other_s", "s", "lower", [("p50_ms", "all")]),
    ("trace.op_s", "s", "lower", [("p50_ms", "all")]),
    ("trace.residual_s", "s", "lower", []),
    ("trace.overhead_s", "s", "lower", []),
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

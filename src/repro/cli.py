"""Command-line interface: regenerate any experiment from the shell.

Usage::

    python -m repro table1 --dataset 5gc --preset smoke
    python -m repro ablation --dataset 5gipc
    python -m repro multitarget
    python -m repro counts --dataset 5gc
    python -m repro runtime --dataset 5gipc --preset fast --trace -v
    python -m repro bench --dataset 5gc --preset smoke --n-jobs -1
    python -m repro bench --suite nn --dataset 5gc --preset smoke
    python -m repro bench --suite serve --dataset 5gc --preset smoke
    python -m repro bench --suite serve --sustained --tenants 3 --rate 300
    python -m repro bench --suite fs --warm --widths 442 --n-jobs -1
    python -m repro rediscover --artifact pipe.npz --source src.npy \\
        --target pooled_target.npy --out pipe_updated.npz
    python -m repro rediscover --artifact pipe.npz --source src.npy \\
        --target pooled_target.npy --json   # exit 3 = variant set changed
    python -m repro adapt run --width 442 --schedule abrupt --out BENCH_adapt.json
    python -m repro adapt status --root artifacts
    python -m repro adapt promote --root artifacts --tenant nf-east
    python -m repro adapt rollback --root artifacts --tenant nf-east
    python -m repro serve --artifact pipe.npz --input batch.npy --output scores.npz
    python -m repro serve --artifact pipe.npz --input batch.npy --repeat 100 \\
        --track-drift --prom-port 9464 --snapshot-out metrics.jsonl
    python -m repro serve --daemon --root artifacts --port 8350
    python -m repro loadgen --root artifacts --input batch.npy --mode open \\
        --rate 200 --duration 5
    python -m repro obs summary runs/runtime-dataset=5gc-preset=smoke-seed=0
    python -m repro obs tail runs/... --kind drift.alarm
    python -m repro obs diff runs/a runs/b

Each subcommand runs one artifact of the paper's evaluation section and
prints it in the paper's layout (see EXPERIMENTS.md for the mapping).
``repro serve`` additionally prints per-stage latency percentiles at
shutdown and can expose a live Prometheus endpoint (``--prom-port``),
periodic metric snapshots (``--snapshot-out``) and streaming drift scores
against the artifact's training reference (``--track-drift``).
``repro serve --daemon`` instead runs the long-lived multi-tenant daemon:
an LRU cache of compiled per-tenant plans over ``--root``, same-tenant
micro-batch coalescing, and an HTTP scoring front on ``--port``.
``repro loadgen`` drives seeded mixed-tenant traffic (open-loop Poisson
or closed-loop saturation) at a daemon — in-process by default, over
HTTP with ``--http`` or against an external ``--url``.
``repro obs`` inspects the run bundles that ``--trace`` writes.

Observability flags (available on every subcommand):

``--trace``
    Collect spans, metrics and events and write the run bundle
    (``trace.json`` / ``metrics.json`` / ``events.jsonl`` /
    ``manifest.json``) to a seed-keyed directory under ``--runs-dir``.
``--metrics-out PATH``
    Write ``metrics.json`` to an explicit path (works with or without
    ``--trace``).
``--log-level`` / ``-v``
    Structured-logging level (``-v`` = INFO, ``-vv`` = DEBUG; the
    ``REPRO_LOG_LEVEL`` environment variable is the fallback).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import (
    SUITES,
    format_ablation,
    format_multitarget,
    format_runtime,
    format_table1,
    format_variant_counts,
    get_preset,
    get_suite,
    measure_runtime,
    run_ablation,
    run_multitarget,
    run_table1,
    summarize_improvement,
    variant_counts,
)
from repro.obs import (
    RunRecorder,
    configure_logging,
    run_dir_name,
    verbosity_to_level,
)


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, dataset=True):
        if dataset:
            p.add_argument("--dataset", choices=("5gc", "5gipc"), default="5gc")
        p.add_argument(
            "--preset", choices=("smoke", "fast", "paper"), default=None,
            help="experiment scale (default: $REPRO_PRESET or smoke)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--n-jobs", type=int, default=1, metavar="N",
            help="worker processes for FS CI tests (-1 = all cores; "
            "results are bit-identical to serial)",
        )
        obs = p.add_argument_group("observability")
        obs.add_argument(
            "--trace", action="store_true",
            help="collect spans/metrics/events and write the run bundle",
        )
        obs.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write metrics.json to this path",
        )
        obs.add_argument(
            "--runs-dir", metavar="DIR", default="runs",
            help="directory receiving --trace run bundles (default: runs)",
        )
        obs.add_argument(
            "--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"),
            default=None, help="structured-logging level",
        )
        obs.add_argument(
            "-v", "--verbose", action="count", default=0,
            help="-v = INFO logging, -vv = DEBUG",
        )

    p = sub.add_parser("table1", help="Table I: the full method/model/shots grid")
    add_common(p)
    p.add_argument("--methods", nargs="*", default=None,
                   help="subset of Table I method names")
    p.add_argument("--models", nargs="*", default=None,
                   help="subset of TNet/MLP/RF/XGB")

    p = sub.add_parser("ablation", help="Table II: reconstruction strategies")
    add_common(p)
    p.add_argument("--model", default="TNet")

    p = sub.add_parser("multitarget", help="Table III: two-target robustness")
    add_common(p, dataset=False)

    p = sub.add_parser("counts", help="§VI-C: variant counts vs shot budget")
    add_common(p)

    p = sub.add_parser("runtime", help="§VI-D: FS / GAN / inference timing")
    add_common(p)

    p = sub.add_parser(
        "bench",
        help="perf benchmark: FS CI engine or the fused NN training engine",
    )
    add_common(p)
    p.add_argument("--suite", choices=tuple(sorted(SUITES)), default="fs",
                   help="; ".join(
                       f"{name} = {suite.description}"
                       for name, suite in sorted(SUITES.items())
                   ))
    p.add_argument("--shots", type=int, default=10,
                   help="few-shot target budget for FS discovery "
                   "(fs/serve suites)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="benchmark record file (merged, seed-keyed; default "
                   "BENCH_fs.json / BENCH_nn.json / BENCH_serve.json by suite)")
    p.add_argument("--skip-gan", action="store_true",
                   help="fs suite: benchmark FS discovery only "
                   "(skip GAN + inference)")
    p.add_argument("--epochs", type=int, default=None,
                   help="nn suite: override the preset's GAN epoch budget")
    p.add_argument("--draws", type=int, default=1,
                   help="serve suite: Monte-Carlo draws per sample")
    p.add_argument("--wide", action="store_true",
                   help="fs suite: scaling curve on synthetic wide matrices "
                   "(default engine vs pruned/float32 path) "
                   "instead of the preset dataset benchmark")
    p.add_argument("--warm", action="store_true",
                   help="fs suite: warm-start re-discovery benchmark (cold "
                   "discover vs rediscover from the previous run's WarmState "
                   "after new few-shot rows) on synthetic wide matrices")
    p.add_argument("--widths", default="442,1024", metavar="W1,W2,...",
                   help="fs --wide/--warm: comma-separated feature widths "
                   "(default 442,1024)")
    p.add_argument("--rounds", type=int, default=2,
                   help="fs --wide/--warm: timing rounds per side (min is "
                   "kept)")
    p.add_argument("--sustained", action="store_true",
                   help="serve suite: benchmark the multi-tenant daemon "
                   "under sustained load (closed-loop throughput + "
                   "open-loop latency) instead of the one-shot plan")
    p.add_argument("--tenants", type=int, default=3,
                   help="serve --sustained: tenant artifacts to fit and serve")
    p.add_argument("--duration", type=float, default=2.0,
                   help="serve --sustained: seconds per measured pass")
    p.add_argument("--rate", type=float, default=300.0,
                   help="serve --sustained: open-loop offered rate (req/s)")
    p.add_argument("--clients", type=int, default=8,
                   help="serve --sustained: concurrent client threads")

    p = sub.add_parser(
        "rediscover",
        help="warm-start FS re-discovery from a saved artifact's warm state",
    )
    add_common(p, dataset=False)
    p.add_argument("--artifact", required=True, metavar="PATH",
                   help="artifact bundle (.npz) carrying a fitted feature "
                   "separator with persisted warm state")
    p.add_argument("--source", required=True, metavar="PATH",
                   help="source-domain matrix: .npy, .npz (array 'X') or .csv")
    p.add_argument("--target", required=True, metavar="PATH",
                   help="pooled few-shot target matrix (previous shots + new "
                   "rows): .npy, .npz (array 'X') or .csv")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the artifact with the refreshed separator and "
                   "warm state here (the reconstructor/GAN is NOT refit)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable variant-set diff "
                   "(added/removed/kept + warm-cache hit statistics) instead "
                   "of the human report; the exit code is 3 when the variant "
                   "set changed, 0 when it is unchanged")

    p = sub.add_parser(
        "adapt",
        help="closed-loop adaptation lifecycle: scenario driver, lineage "
        "status, one-command promote/rollback",
    )
    adapt_sub = p.add_subparsers(dest="adapt_command", required=True)
    pr = adapt_sub.add_parser(
        "run",
        help="drive a known-onset drift schedule through the live "
        "adaptation loop and report/record its figures of merit",
    )
    add_common(pr, dataset=False)
    pr.add_argument("--width", type=int, default=442,
                    help="synthetic feature width (default: the 442-feature "
                    "warm-bench preset)")
    pr.add_argument("--schedule", choices=("abrupt", "gradual"),
                    default="abrupt", help="drift onset shape")
    pr.add_argument("--onset-batch", type=int, default=10,
                    help="first drifted batch (0-based; default 10)")
    pr.add_argument("--batches", type=int, default=32,
                    help="total traffic batches (default 32)")
    pr.add_argument("--batch-rows", type=int, default=64,
                    help="rows per traffic batch (default 64)")
    pr.add_argument("--min-shots", type=int, default=64,
                    help="post-alarm shots accumulated before refit")
    pr.add_argument("--rounds", type=int, default=2,
                    help="cold re-discovery timing rounds (min is kept)")
    pr.add_argument("--root", metavar="DIR", default=None,
                    help="artifact-lineage root to keep (default: a "
                    "temporary directory discarded after the run)")
    pr.add_argument("--out", metavar="PATH", default=None,
                    help="merge a bench record into this file "
                    "(BENCH_adapt.json layout)")
    for name, help_text in (
        ("status", "print a tenant's lineage: generations, states, pointer"),
        ("promote", "activate the latest candidate/shadow version "
         "(pure pointer flip)"),
        ("rollback", "flip the active pointer back to the previous version"),
    ):
        pa = adapt_sub.add_parser(name, help=help_text)
        add_common(pa, dataset=False)
        pa.add_argument("--root", metavar="DIR", required=True,
                        help="artifact-lineage root directory")
        pa.add_argument("--tenant", metavar="NAME",
                        default=None if name == "status" else None,
                        required=name != "status",
                        help="tenant name"
                        + (" (default: every tenant under --root)"
                           if name == "status" else ""))
        if name == "promote":
            pa.add_argument("--hash", metavar="CONTENT_HASH", default=None,
                            help="promote this specific version (default: "
                            "the latest candidate/shadow)")

    p = sub.add_parser(
        "serve",
        help="score a batch through a compiled plan, or run the "
        "multi-tenant serving daemon (--daemon)",
    )
    add_common(p, dataset=False)
    p.add_argument("--daemon", action="store_true",
                   help="run the long-lived multi-tenant daemon over an "
                   "artifact directory instead of one-shot scoring")
    p.add_argument("--artifact", metavar="PATH",
                   help="fsgan_pipeline artifact bundle (.npz; one-shot mode)")
    p.add_argument("--input", metavar="PATH",
                   help="feature batch: .npy, .npz (array 'X') or .csv "
                   "(one-shot mode)")
    daemon = p.add_argument_group("daemon mode")
    daemon.add_argument("--root", metavar="DIR", default="artifacts",
                        help="directory of <tenant>.npz artifact bundles")
    daemon.add_argument("--host", default="127.0.0.1",
                        help="HTTP bind address (default 127.0.0.1)")
    daemon.add_argument("--port", type=int, default=8350,
                        help="HTTP port (0 = ephemeral; default 8350)")
    daemon.add_argument("--max-batch-rows", type=int, default=256,
                        metavar="N",
                        help="largest request or coalesced micro-batch "
                        "in rows (default 256)")
    daemon.add_argument("--max-wait-ms", type=float, default=2.0,
                        metavar="MS",
                        help="idle linger before scoring an uncoalesced "
                        "request (default 2 ms)")
    daemon.add_argument("--cache-size", type=int, default=8, metavar="N",
                        help="tenants kept hot in the LRU plan cache")
    daemon.add_argument("--no-coalesce", action="store_true",
                        help="score every request in its own padded "
                        "execution (baseline mode)")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write proba + labels to .npz or .json")
    p.add_argument("--n-draws", type=int, default=1,
                   help="Monte-Carlo draws per sample")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="score the batch N times (soak mode; scores are "
                   "written from the first pass)")
    p.add_argument("--track-drift", action="store_true",
                   help="stream per-feature PSI/KS drift scores against the "
                   "artifact's training reference")
    p.add_argument("--prom-port", type=int, default=None, metavar="PORT",
                   help="expose a Prometheus /metrics endpoint on this port "
                   "while serving")
    p.add_argument("--snapshot-out", metavar="PATH", default=None,
                   help="append metric snapshots to this .jsonl/.csv file")
    p.add_argument("--snapshot-every", type=float, default=None,
                   metavar="SECONDS",
                   help="snapshot period (with --snapshot-out); default: one "
                   "snapshot at shutdown")

    p = sub.add_parser(
        "loadgen",
        help="drive mixed-tenant request traffic at a serving daemon",
    )
    add_common(p, dataset=False)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--root", metavar="DIR",
                        help="artifact directory: spin up an in-process "
                        "daemon over it and drive that")
    target.add_argument("--url", metavar="URL",
                        help="drive an already-running daemon's HTTP front "
                        "(http://host:port)")
    p.add_argument("--input", required=True, metavar="PATH",
                   help="feature rows the traffic slices from: .npy, .npz "
                   "(array 'X') or .csv")
    p.add_argument("--tenants", nargs="*", default=None, metavar="NAME",
                   help="tenant names to mix (default: every bundle under "
                   "--root; required with --url)")
    p.add_argument("--mode", choices=("open", "closed"), default="open",
                   help="open = Poisson arrivals at --rate; closed = "
                   "saturation (clients submit back-to-back)")
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds of load (default 5)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="open-loop offered rate in requests/sec")
    p.add_argument("--clients", type=int, default=8,
                   help="client threads (default 8)")
    p.add_argument("--rows", default="1,8", metavar="LO,HI",
                   help="rows per request, uniform in [LO, HI] (default 1,8)")
    p.add_argument("--http", action="store_true",
                   help="with --root: drive the in-process daemon through "
                   "its HTTP front instead of direct submits")
    p.add_argument("--n-draws", type=int, default=1,
                   help="Monte-Carlo draws per sample (in-process daemon)")
    p.add_argument("--max-batch-rows", type=int, default=256, metavar="N",
                   help="micro-batch capacity (in-process daemon)")

    p = sub.add_parser(
        "obs",
        help="inspect run bundles: summary, tail events, diff two runs",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    ps = obs_sub.add_parser("summary",
                            help="latency/drift/counter report of one bundle")
    ps.add_argument("run_dir", help="run directory (or metrics.json file)")
    pt = obs_sub.add_parser("tail", help="print the last events of a bundle")
    pt.add_argument("run_dir")
    pt.add_argument("-n", type=int, default=20, help="events to show")
    pt.add_argument("--kind", default=None, metavar="KIND",
                    help="only events of this kind (e.g. drift.alarm)")
    pd = obs_sub.add_parser("diff", help="metric-by-metric diff of two runs")
    pd.add_argument("run_a")
    pd.add_argument("run_b")
    return parser


def _make_recorder(args, preset) -> RunRecorder | None:
    """Build the observability session implied by the CLI flags (or None)."""
    if not (args.trace or args.metrics_out):
        return None
    run_dir = None
    if args.trace:
        run_dir = os.path.join(
            args.runs_dir,
            run_dir_name(
                args.command,
                dataset=getattr(args, "dataset", None),
                preset=preset.name,
                seed=args.seed,
            ),
        )
    return RunRecorder(
        run_dir,
        metrics_path=args.metrics_out,
        manifest={
            "command": args.command,
            "dataset": getattr(args, "dataset", None),
            "preset": preset.name,
            "seed": args.seed,
        },
    )


def _dispatch(args, preset) -> int:
    """Run the selected subcommand and print its table; returns an exit code."""
    if args.command == "table1":
        results = run_table1(
            args.dataset,
            preset=preset,
            methods=tuple(args.methods) if args.methods else None,
            models=tuple(args.models) if args.models else None,
            random_state=args.seed,
            n_jobs=args.n_jobs,
        )
        print(format_table1(results, dataset=args.dataset.upper()))
        summary = summarize_improvement(results)
        if summary["best_other"] is not None:
            print(
                f"\nFS+GAN gain over SrcOnly: {100 * summary['fsgan_gain']:+.1f}; "
                f"best other ({summary['best_other']}): "
                f"{100 * summary['best_other_gain']:+.1f}"
            )
    elif args.command == "ablation":
        results = run_ablation(
            args.dataset, preset=preset, model=args.model,
            random_state=args.seed, n_jobs=args.n_jobs,
        )
        print(format_ablation(results, dataset=args.dataset.upper()))
    elif args.command == "multitarget":
        print(format_multitarget(
            run_multitarget(preset=preset, random_state=args.seed)
        ))
    elif args.command == "counts":
        print(format_variant_counts(variant_counts(
            args.dataset, preset=preset, random_state=args.seed,
            n_jobs=args.n_jobs,
        )))
    elif args.command == "runtime":
        print(format_runtime(measure_runtime(
            args.dataset, preset=preset, random_state=args.seed,
            n_jobs=args.n_jobs,
        )))
    elif args.command == "bench":
        # one registry drives every suite: the suite's CLI adapter hook
        # runs the benchmark and returns the report (ROADMAP item 5)
        suite = get_suite(args.suite)
        out = args.out or suite.default_out
        print(suite.run_cli(args, preset, out))
        print(f"\nrecord merged into {out}")
    elif args.command == "rediscover":
        import json
        from dataclasses import replace

        from repro.core.artifacts import load_artifact, save_artifact
        from repro.core.feature_separation import FeatureSeparator
        from repro.serve import read_input

        loaded = load_artifact(args.artifact)
        estimator = loaded.estimator
        sep = (
            estimator
            if isinstance(estimator, FeatureSeparator)
            else getattr(estimator, "separator_", None)
        )
        if sep is None:
            raise SystemExit(
                f"repro rediscover: artifact kind {loaded.kind!r} carries no "
                "feature separator"
            )
        if sep.warm_state_ is None:
            raise SystemExit(
                "repro rediscover: artifact has no persisted warm state "
                "(it predates warm-start support — refit once to capture one)"
            )
        Xs = read_input(args.source)
        Xt = read_input(args.target)
        scaler = getattr(estimator, "scaler_", None)
        if scaler is not None:
            Xs, Xt = scaler.transform(Xs), scaler.transform(Xt)
        refreshed = FeatureSeparator(
            replace(sep.config, n_jobs=args.n_jobs, warm_mode="exact")
        ).fit(Xs, Xt, warm=sep.warm_state_)
        mode = refreshed.cache_stats_["mode"]
        old = set(int(j) for j in sep.result_.variant_indices)
        new = set(int(j) for j in refreshed.result_.variant_indices)
        res = refreshed.result_
        added, removed = sorted(new - old), sorted(old - new)
        kept = sorted(new & old)
        changed = bool(added or removed)
        if args.json:
            print(json.dumps({
                "mode": mode,
                "n_variant": int(res.n_variant),
                "n_tests": int(res.n_tests),
                "coverage": float(res.coverage),
                "changed": changed,
                "added": added,
                "removed": removed,
                "kept": kept,
                "warm_cache": refreshed.cache_stats_,
            }, indent=2, sort_keys=True))
        else:
            print(
                f"{mode} re-discovery: {res.n_variant} variant "
                f"features ({res.n_tests} CI tests, coverage {res.coverage:.2f})"
            )
            print(f"  newly variant:   {added if added else '(none)'}")
            print(f"  newly invariant: {removed if removed else '(none)'}")
        if args.out:
            if sep is estimator:
                save_artifact(refreshed, args.out,
                              provenance=loaded.provenance or None,
                              monitor=loaded.monitor)
            else:
                estimator.separator_ = refreshed
                save_artifact(estimator, args.out,
                              provenance=loaded.provenance or None,
                              monitor=loaded.monitor)
                if not args.json:
                    print(
                        "note: the reconstructor/GAN was not refit — rerun "
                        "pipeline training to adapt it to the new variant set"
                    )
            if not args.json:
                print(f"updated artifact written to {args.out}")
        # scripting contract: a changed variant set exits 3 so callers can
        # gate a full refit on it (0 = unchanged, like diff's 0/1 idiom)
        return 3 if changed else 0
    elif args.command == "adapt":
        return _dispatch_adapt(args, preset)
    elif args.command == "serve" and args.daemon:
        from repro.serve import DaemonConfig, run_daemon

        run_daemon(DaemonConfig(
            root=args.root,
            host=args.host,
            port=args.port,
            n_draws=args.n_draws,
            micro_batch_rows=args.max_batch_rows,
            max_wait=args.max_wait_ms / 1e3,
            cache_size=args.cache_size,
            coalesce=not args.no_coalesce,
            prom_port=args.prom_port,
        ))
    elif args.command == "serve":
        from repro.serve import run_serve

        if not args.artifact or not args.input:
            raise SystemExit(
                "repro serve: --artifact and --input are required "
                "(or use --daemon --root DIR)"
            )
        summary = run_serve(
            args.artifact,
            args.input,
            output_path=args.output,
            n_draws=args.n_draws,
            repeat=args.repeat,
            track_drift=args.track_drift,
            prom_port=args.prom_port,
            snapshot_path=args.snapshot_out,
            snapshot_interval=args.snapshot_every,
        )
        repeat_note = (f" x {summary['repeat']} passes"
                       if summary["repeat"] > 1 else "")
        print(
            f"scored {summary['n_samples']} rows x {summary['n_features']} "
            f"features{repeat_note} through {summary['kind']} artifact "
            f"(schema v{summary['schema_version']}, n_draws={summary['n_draws']}): "
            f"{1e3 * summary['seconds']:.2f} ms "
            f"({summary['rows_per_second']:.0f} rows/s)"
        )
        for stage, s in summary["stages"].items():
            print(
                f"  {stage:<9} p50={1e3 * s['p50']:8.3f} ms  "
                f"p90={1e3 * s['p90']:8.3f} ms  p99={1e3 * s['p99']:8.3f} ms  "
                f"(n={s['count']})"
            )
        latency = summary["latency"]
        if latency.get("count"):
            print(
                f"  batch     p50={1e3 * latency['p50']:8.3f} ms  "
                f"p90={1e3 * latency['p90']:8.3f} ms  "
                f"p99={1e3 * latency['p99']:8.3f} ms"
            )
        if "drift" in summary:
            drift = summary["drift"]
            state = "ALARM" if drift["alarmed"] else "ok"
            print(
                f"  drift     psi_max={drift['psi_max']:.3f} "
                f"ks_max={drift['ks_max']:.3f} [{state}] "
                f"features={drift['drifted_features']}"
            )
        if "prometheus" in summary:
            print(f"  metrics exposed at {summary['prometheus']}")
        if "output" in summary:
            print(f"scores written to {summary['output']}")
    elif args.command == "loadgen":
        from contextlib import ExitStack

        from repro.experiments import format_loadgen, run_loadgen
        from repro.serve import DaemonConfig, ServeDaemon, read_input

        X = read_input(args.input)
        lo, _, hi = args.rows.partition(",")
        rows_per_request = (int(lo), int(hi or lo))
        with ExitStack() as stack:
            if args.url:
                if not args.tenants:
                    raise SystemExit(
                        "repro loadgen: --tenants is required with --url"
                    )
                target, tenants = args.url, list(args.tenants)
            else:
                daemon = stack.enter_context(ServeDaemon(DaemonConfig(
                    root=args.root,
                    port=0 if args.http else None,
                    n_draws=args.n_draws,
                    micro_batch_rows=args.max_batch_rows,
                )))
                tenants = list(args.tenants or daemon.cache.known_tenants())
                if not tenants:
                    raise SystemExit(
                        f"repro loadgen: no tenant bundles under {args.root}"
                    )
                target = daemon.url if args.http else daemon
            result = run_loadgen(
                target, X, tenants,
                mode=args.mode,
                duration=args.duration,
                rate=args.rate,
                clients=args.clients,
                rows_per_request=rows_per_request,
                seed=args.seed,
            )
        print(format_loadgen(result))


def _dispatch_adapt(args, preset) -> int:
    """The ``repro adapt`` lifecycle subcommands."""
    from repro.utils.errors import ReproError

    if args.adapt_command == "run":
        from repro.experiments.drift_schedule import (
            format_bench_adapt,
            run_bench_adapt,
            run_adapt_scenario,
        )

        if args.out:
            records = run_bench_adapt(
                (args.width,),
                schedule=args.schedule,
                cold_rounds=max(1, args.rounds),
                min_shots=args.min_shots,
                n_jobs=args.n_jobs,
                random_state=args.seed,
                out=args.out,
            )
            print(format_bench_adapt(records))
            print(f"\nrecord merged into {args.out}")
            return 0
        result = run_adapt_scenario(
            args.width,
            schedule=args.schedule,
            n_batches=args.batches,
            batch_rows=args.batch_rows,
            onset_batch=args.onset_batch,
            min_shots=args.min_shots,
            cold_rounds=max(1, args.rounds),
            n_jobs=args.n_jobs,
            random_state=args.seed,
            root=args.root,
        )
        print(
            f"adapt scenario ({result['schedule']}, width {result['width']}):"
        )
        print(
            f"  onset batch {result['onset_batch']}, alarm batch "
            f"{result['alarm_batch']} (detection latency "
            f"{result['detection_latency_batches']} batches)"
        )
        print(f"  shots to refit: {result['shots_to_refit']}")
        if result.get("rediscover_warm_seconds") is not None:
            print(
                f"  warm re-discovery: {result['rediscover_warm_seconds']:.3f}s"
                + (
                    f" (cold {result['rediscover_cold_seconds']:.3f}s, "
                    f"{result['warm_speedup']:.2f}x, variant sets "
                    + ("equal" if result.get("variant_equivalent")
                       else "DIFFER")
                    + ")"
                    if "rediscover_cold_seconds" in result else ""
                )
            )
        if result.get("alarm_to_promotion_seconds") is not None:
            print(
                f"  alarm -> promotion: "
                f"{result['alarm_to_promotion_seconds']:.3f}s "
                f"(generation {result['generation']})"
            )
        print(f"  final state: {result['final_state']}")
        if args.root:
            print(f"  lineage kept under {args.root}")
        return 0 if result["promoted"] else 1

    # status / promote / rollback operate on an existing lineage root
    from repro.adapt.lineage import ArtifactLineage

    lineage = ArtifactLineage(args.root)
    try:
        if args.adapt_command == "status":
            tenants = [args.tenant] if args.tenant else lineage.tenants()
            if not tenants:
                print(f"no lineage-managed tenants under {args.root}")
                return 1
            for tenant in tenants:
                active = lineage.active(tenant)
                previous = lineage.previous(tenant)
                print(f"{tenant}:")
                for v in lineage.history(tenant):
                    marker = (
                        "*" if active and v.content_hash == active.content_hash
                        else ("-" if previous
                              and v.content_hash == previous.content_hash
                              else " ")
                    )
                    print(
                        f"  {marker} gen {v.generation}  "
                        f"{v.lifecycle_state:<9}  {v.content_hash[:12]}  "
                        f"{v.file}"
                    )
                if previous is not None:
                    print(
                        f"  rollback would restore gen {previous.generation} "
                        f"({previous.content_hash[:12]})"
                    )
            return 0
        elif args.adapt_command == "promote":
            version = lineage.promote(args.tenant, args.hash)
            print(
                f"promoted {args.tenant} to gen {version.generation} "
                f"({version.content_hash[:12]}); active pointer flipped"
            )
            return 0
        else:  # rollback
            version = lineage.rollback(args.tenant)
            print(
                f"rolled {args.tenant} back to gen {version.generation} "
                f"({version.content_hash[:12]}); active pointer flipped"
            )
            return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch_obs(args) -> int:
    """Run the offline ``repro obs`` inspection subcommands."""
    from repro.obs import diff_runs, summarize_run, tail_events
    from repro.utils.errors import ReproError

    try:
        if args.obs_command == "summary":
            print(summarize_run(args.run_dir))
        elif args.obs_command == "tail":
            print(tail_events(args.run_dir, n=args.n, kind=args.kind))
        elif args.obs_command == "diff":
            print(diff_runs(args.run_a, args.run_b))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # output piped into head/less and truncated
        sys.stderr.close()
        return 0
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "obs":  # pure inspection: no preset, no recorder
        return _dispatch_obs(args)
    if args.log_level is not None:
        configure_logging(args.log_level)
    elif args.verbose:
        configure_logging(verbosity_to_level(args.verbose))
    preset = get_preset(args.preset)
    recorder = _make_recorder(args, preset)

    if recorder is None:
        return _dispatch(args, preset) or 0
    with recorder:
        code = _dispatch(args, preset) or 0
    for path in (
        [recorder.run_dir] if recorder.run_dir else []
    ) + ([recorder.metrics_path] if recorder.metrics_path else []):
        print(f"[obs] telemetry written to {path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One registry for every benchmark suite (ROADMAP item 5).

Before this module each suite (FS, NN, serve) carried its own ad-hoc
schema constant, record layout and file-merge helper.  The registry pins
them down in one place:

- :class:`BenchSuite` — the per-suite contract: schema tag, default
  record file, which *ratio* fields the CI regression gate compares
  (wall-clock seconds are machine-dependent; before/after ratios are not),
  plus two lazily-resolved hooks: ``cli`` (the suite's CLI adapter, so
  ``repro bench --suite X`` dispatches through this table instead of
  hand-rolled branches) and ``oracle`` (the suite's record-equivalence
  checker, shared by CI validation and tests).  Hooks are dotted
  ``module:function`` strings resolved on first use, keeping this module
  import-cycle-free.
- :class:`BenchRecord` — the shared record shape every suite emits: a
  ``dataset/preset/seedN`` key, ``before``/``after`` measurement dicts,
  the headline ``speedup`` ratio and the ``equivalent`` flag asserting the
  optimized path reproduced the reference results.  Suite-specific detail
  rides in ``extras`` and serializes flat, so the on-disk layout of the
  committed ``BENCH_*.json`` files is unchanged.
- :func:`bench_key` / :func:`write_bench_record` — the seed-keyed JSON
  merge used by every suite (moved here from ``bench.py``; re-exported
  there for compatibility).

``benchmarks/perf/check_regression.py`` imports
:data:`REGRESSION_RATIO_FIELDS` from here, so adding a gated ratio to a
suite is a one-line registry edit.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass, field

#: (label, path into the record) for every ratio the regression gate
#: compares; a path absent from a record is skipped, never an error
REGRESSION_RATIO_FIELDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("speedup", ("speedup",)),
    ("serve.speedup", ("serve", "speedup")),
    ("float32.speedup_vs_float64", ("float32", "speedup_vs_float64")),
)


def _resolve(dotted: str):
    """Import a ``module:function`` hook reference."""
    module_name, _, attr = dotted.partition(":")
    if not module_name or not attr:
        raise ValueError(f"hook reference must be 'module:function', got {dotted!r}")
    return getattr(importlib.import_module(module_name), attr)


@dataclass(frozen=True)
class BenchSuite:
    """Registry entry for one benchmark suite."""

    name: str
    schema: str
    default_out: str
    description: str
    ratio_fields: tuple[tuple[str, tuple[str, ...]], ...] = REGRESSION_RATIO_FIELDS
    #: dotted ``module:function`` of the suite's CLI adapter
    #: (``fn(args, preset, out) -> str`` returning the report to print)
    cli: str | None = None
    #: dotted ``module:function`` of the suite's equivalence oracle
    #: (``fn(record) -> list[str]`` of problems; empty = record is sound)
    oracle: str | None = None

    def run_cli(self, args, preset, out: str) -> str:
        """Run the suite through its CLI adapter hook."""
        if self.cli is None:
            raise ValueError(f"suite {self.name!r} has no CLI adapter")
        return _resolve(self.cli)(args, preset, out)

    def check_record(self, record: dict) -> list[str]:
        """Problems with a record: shared shape first, then the oracle."""
        problems = check_record_shape(record)
        if not problems and self.oracle is not None:
            problems = list(_resolve(self.oracle)(record))
        return problems


def check_record_shape(record: dict) -> list[str]:
    """Shared-schema problems of one bench record (empty list = fine)."""
    problems = []
    for key in ("dataset", "preset", "seed", "before", "after", "speedup"):
        if key not in record:
            problems.append(f"missing field {key!r}")
    if problems:
        return problems
    if not isinstance(record["before"], dict) or not isinstance(
            record["after"], dict):
        problems.append("before/after must be measurement dicts")
    speedup = record["speedup"]
    if not isinstance(speedup, (int, float)) or not speedup > 0:
        problems.append(f"speedup must be a positive number, got {speedup!r}")
    if record.get("equivalent") is not True:
        problems.append("record does not assert equivalence")
    return problems


SUITES: dict[str, BenchSuite] = {
    suite.name: suite
    for suite in (
        BenchSuite(
            name="fs",
            schema="repro.bench.fs/v1",
            default_out="BENCH_fs.json",
            description="FS discovery: reference scalar loop vs batched CI engine",
            cli="repro.experiments.bench:cli_bench",
            oracle="repro.experiments.bench:check_fs_record",
        ),
        BenchSuite(
            name="nn",
            schema="repro.bench.nn/v1",
            default_out="BENCH_nn.json",
            description="cGAN training/serving: frozen reference vs fused engine",
            cli="repro.experiments.bench_nn:cli_bench_nn",
            oracle="repro.experiments.bench_nn:check_nn_record",
        ),
        BenchSuite(
            name="serve",
            schema="repro.bench.serve/v1",
            default_out="BENCH_serve.json",
            description="pipeline serving: naive predict_proba vs compiled "
            "plan (one-shot), or the micro-batching daemon under sustained "
            "mixed-tenant load (--sustained)",
            cli="repro.experiments.bench_serve:cli_bench_serve",
            oracle="repro.experiments.bench_serve:check_serve_record",
        ),
        BenchSuite(
            name="adapt",
            schema="repro.bench.adapt/v1",
            default_out="BENCH_adapt.json",
            description="closed-loop adaptation lifecycle: cold FS "
            "re-discovery vs the in-loop warm rediscover, plus detection "
            "latency and alarm-to-promotion wall time",
            cli="repro.experiments.drift_schedule:cli_bench_adapt",
            oracle="repro.experiments.drift_schedule:check_adapt_record",
        ),
    )
}


def get_suite(name: str) -> BenchSuite:
    if name not in SUITES:
        raise KeyError(f"unknown bench suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[name]


def suite_for_schema(schema: str) -> BenchSuite | None:
    """The registered suite owning ``schema``, or None for foreign files."""
    for suite in SUITES.values():
        if suite.schema == schema:
            return suite
    return None


@dataclass
class BenchRecord:
    """The record shape shared by every suite.

    ``extras`` carries suite-specific measurements (GAN timings, serve
    telemetry, scaling metadata, …) and serializes *flat* alongside the
    shared fields, so :meth:`to_dict` output is byte-compatible with the
    pre-registry per-suite layouts.
    """

    suite: str
    dataset: str
    preset: str
    seed: int
    before: dict
    after: dict
    speedup: float
    equivalent: bool
    extras: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.dataset}/{self.preset}/seed{self.seed}"

    def to_dict(self) -> dict:
        doc = {
            "dataset": self.dataset,
            "preset": self.preset,
            "seed": self.seed,
            "before": self.before,
            "after": self.after,
            "speedup": self.speedup,
            "equivalent": self.equivalent,
        }
        for key, value in self.extras.items():
            doc.setdefault(key, value)
        return doc

    @classmethod
    def from_dict(cls, suite: str, record: dict) -> "BenchRecord":
        shared = ("dataset", "preset", "seed", "before", "after", "speedup",
                  "equivalent")
        return cls(
            suite=suite,
            dataset=str(record.get("dataset", "")),
            preset=str(record.get("preset", "")),
            seed=int(record.get("seed", 0)),
            before=dict(record.get("before", {})),
            after=dict(record.get("after", {})),
            speedup=float(record.get("speedup", 0.0)),
            equivalent=bool(record.get("equivalent", False)),
            extras={k: v for k, v in record.items() if k not in shared},
        )


def bench_key(record: dict | BenchRecord) -> str:
    """The seed-keyed slot a record occupies in its benchmark file."""
    if isinstance(record, BenchRecord):
        return record.key
    return f"{record['dataset']}/{record['preset']}/seed{record['seed']}"


def write_bench_record(
    record: dict | BenchRecord, path: str, *, schema: str
) -> None:
    """Merge ``record`` into the JSON file at ``path`` (created if absent,
    with its directory).

    ``schema`` tags the file; an existing file with a different schema is
    rewritten from scratch rather than mixed (each suite owns its file).
    """
    if isinstance(record, BenchRecord):
        record = record.to_dict()
    doc = {"schema": schema, "records": {}}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                existing = json.load(fh)
            if isinstance(existing, dict) and existing.get("schema") == schema:
                doc["records"].update(existing.get("records", {}))
        except (ValueError, OSError):
            pass  # unreadable file: rewrite from scratch
    doc["records"][bench_key(record)] = record
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


__all__ = [
    "REGRESSION_RATIO_FIELDS",
    "BenchRecord",
    "BenchSuite",
    "SUITES",
    "bench_key",
    "check_record_shape",
    "get_suite",
    "suite_for_schema",
    "write_bench_record",
]

"""Serving layer: compiled inference plans, batch runtime, and the daemon."""

from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.daemon import DaemonConfig, ServeDaemon, run_daemon
from repro.serve.plan import InferencePlan, clone_rng
from repro.serve.registry import PlanCache, TenantEntry
from repro.serve.runtime import (
    load_plan,
    read_input,
    run_serve,
    stage_summaries,
    write_output,
)
from repro.serve.server import DaemonHTTPServer

__all__ = [
    "DaemonConfig",
    "DaemonHTTPServer",
    "InferencePlan",
    "MicroBatcher",
    "PendingRequest",
    "PlanCache",
    "ServeDaemon",
    "TenantEntry",
    "clone_rng",
    "load_plan",
    "read_input",
    "run_daemon",
    "run_serve",
    "stage_summaries",
    "write_output",
]

"""Didactic walkthrough of the causal machinery behind the FS method.

Builds a five-node telemetry micro-system with a known causal graph, drifts
it with a soft intervention on one node, and shows:

1. the PC algorithm recovering the causal skeleton from observational data;
2. why marginal two-sample tests over-flag (the intervened node's *children*
   shift too) while the F-node subset-search flags exactly the true target;
3. the exact Ψ-FCI-style variant (full PC with the F-node included).

Run:
    python examples/causal_discovery_demo.py
"""

import numpy as np

from repro.causal import (
    FNodeDiscovery,
    discover_targets_pc,
    pc_algorithm,
    regression_invariance_test,
)
from repro.core import FSConfig

NAMES = ["load", "pkts_in", "pkts_out", "cpu", "mem"]


def sample(n, rng, *, intervene=False):
    """load → pkts_in → pkts_out; load → cpu; mem independent.

    The drift softly intervenes on ``pkts_in`` (index 1): its conditional
    mechanism given ``load`` changes, and ``pkts_out`` shifts *marginally*
    as a consequence without its own mechanism changing.
    """
    load = rng.standard_normal(n)
    pkts_in = 0.9 * load + 0.4 * rng.standard_normal(n)
    if intervene:
        pkts_in = pkts_in + 2.5
    pkts_out = 0.9 * pkts_in + 0.4 * rng.standard_normal(n)
    cpu = 0.7 * load + 0.5 * rng.standard_normal(n)
    mem = rng.standard_normal(n)
    return np.column_stack([load, pkts_in, pkts_out, cpu, mem])


def main() -> None:
    rng = np.random.default_rng(0)
    X_source = sample(2000, rng)
    X_target = sample(120, rng, intervene=True)

    print("1) PC algorithm on observational (source) data")
    result = pc_algorithm(X_source, NAMES, alpha=0.01)
    for a, b, directed in sorted(result.graph.edges(), key=str):
        arrow = "->" if directed else "--"
        print(f"   {a} {arrow} {b}")
    print(f"   ({result.n_tests} conditional-independence tests)")

    print("\n2) marginal tests vs the F-node subset search")
    print(f"   {'feature':>9} {'marginal p':>12} {'flagged by FS?':>15}")
    fs = FNodeDiscovery(FSConfig(alpha=0.01)).discover(X_source, X_target)
    for j, name in enumerate(NAMES):
        p_marginal = regression_invariance_test(X_source[:, j], X_target[:, j])
        flagged = "VARIANT" if j in fs.variant_indices else "invariant"
        print(f"   {name:>9} {p_marginal:>12.2e} {flagged:>15}")
    print("   note: pkts_out shifts marginally (tiny p) because its parent")
    print("   drifted, yet FS clears it by conditioning on pkts_in — only")
    print("   the true intervention target is flagged.")

    print("\n3) exact Ψ-FCI-style discovery (full PC with the F-node)")
    result, pc_result = discover_targets_pc(
        X_source, X_target, alpha=0.01, feature_names=NAMES
    )
    flagged = [NAMES[j] for j in result.variant_indices]
    print(f"   intervention targets: {flagged}")
    print(f"   F-node edges: "
          f"{sorted(pc_result.graph.children('F'))} (all outgoing)")


if __name__ == "__main__":
    main()

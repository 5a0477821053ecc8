"""Causal graph data structure (CPDAG) used by the PC algorithm.

A :class:`CausalGraph` holds a mixed graph: undirected edges (unresolved
orientation) and directed edges.  It provides the operations constraint-based
discovery needs — skeleton edits, v-structure orientation, Meek's rules —
on top of plain adjacency sets.  networkx is an optional dependency, imported
only by :meth:`CausalGraph.to_networkx`.
"""

from __future__ import annotations

from itertools import combinations

from repro.utils.errors import GraphError


class CausalGraph:
    """A partially directed graph over named nodes."""

    def __init__(self, nodes) -> None:
        self.nodes: list = list(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("duplicate node names")
        self._undirected: dict = {node: set() for node in self.nodes}
        self._parents: dict = {node: set() for node in self.nodes}
        self._children: dict = {node: set() for node in self.nodes}

    # -- construction -----------------------------------------------------
    @classmethod
    def complete(cls, nodes) -> "CausalGraph":
        """Fully connected undirected graph (PC's starting point)."""
        graph = cls(nodes)
        for a, b in combinations(graph.nodes, 2):
            graph.add_undirected_edge(a, b)
        return graph

    def _check(self, *nodes) -> None:
        for node in nodes:
            if node not in self._undirected:
                raise GraphError(f"unknown node {node!r}")

    def add_undirected_edge(self, a, b) -> None:
        self._check(a, b)
        if a == b:
            raise GraphError("self-loops are not allowed")
        if b in self._parents[a] or a in self._parents[b]:
            raise GraphError(f"edge {a!r}-{b!r} already directed")
        self._undirected[a].add(b)
        self._undirected[b].add(a)

    def remove_edge(self, a, b) -> None:
        """Remove any edge (directed or undirected) between a and b."""
        self._check(a, b)
        self._undirected[a].discard(b)
        self._undirected[b].discard(a)
        self._parents[a].discard(b)
        self._children[b].discard(a)
        self._parents[b].discard(a)
        self._children[a].discard(b)

    def orient(self, a, b) -> None:
        """Turn the edge between a and b into ``a → b``."""
        self._check(a, b)
        if b not in self._undirected[a] and b not in self._children[a] \
                and a not in self._parents[b]:
            raise GraphError(f"no edge between {a!r} and {b!r} to orient")
        self._undirected[a].discard(b)
        self._undirected[b].discard(a)
        self._parents[b].add(a)
        self._children[a].add(b)

    # -- queries ----------------------------------------------------------
    def has_edge(self, a, b) -> bool:
        """Any edge between a and b, regardless of orientation."""
        self._check(a, b)
        return (
            b in self._undirected[a]
            or b in self._children[a]
            or b in self._parents[a]
        )

    def is_directed(self, a, b) -> bool:
        """True iff the graph contains ``a → b``."""
        self._check(a, b)
        return b in self._children[a]

    def neighbors(self, node) -> set:
        """All nodes connected to ``node`` by any edge."""
        self._check(node)
        return set(self._undirected[node]) | self._parents[node] | self._children[node]

    def undirected_neighbors(self, node) -> set:
        self._check(node)
        return set(self._undirected[node])

    def parents(self, node) -> set:
        self._check(node)
        return set(self._parents[node])

    def children(self, node) -> set:
        self._check(node)
        return set(self._children[node])

    def edges(self) -> list[tuple]:
        """All edges as (a, b, directed) triples (undirected listed once)."""
        seen = set()
        out = []
        for a in self.nodes:
            for b in self._children[a]:
                out.append((a, b, True))
            for b in self._undirected[a]:
                if (b, a) not in seen:
                    out.append((a, b, False))
                    seen.add((a, b))
        return out

    def n_edges(self) -> int:
        return len(self.edges())

    # -- orientation rules --------------------------------------------------
    def orient_v_structures(self, sepsets: dict) -> None:
        """Orient colliders ``a → c ← b`` for nonadjacent a, b with c ∉ sepset(a,b)."""
        for c in self.nodes:
            nbrs = sorted(self.neighbors(c), key=str)
            for a, b in combinations(nbrs, 2):
                if self.has_edge(a, b):
                    continue
                sepset = sepsets.get(frozenset((a, b)))
                if sepset is not None and c not in sepset:
                    if not self.is_directed(c, a):
                        self.orient(a, c)
                    if not self.is_directed(c, b):
                        self.orient(b, c)

    def apply_meek_rules(self) -> None:
        """Apply Meek's orientation rules 1–3 to a fixpoint."""
        changed = True
        while changed:
            changed = False
            for a in self.nodes:
                for b in list(self._undirected[a]):
                    # Rule 1: c → a and c not adjacent to b  =>  a → b
                    if any(
                        not self.has_edge(c, b)
                        for c in self._parents[a]
                    ):
                        self.orient(a, b)
                        changed = True
                        continue
                    # Rule 2: a → c → b  =>  a → b
                    if self._children[a] & self._parents[b]:
                        self.orient(a, b)
                        changed = True
                        continue
                    # Rule 3: a - c → b and a - d → b, c/d nonadjacent => a → b
                    candidates = [
                        c for c in self._undirected[a] if c in self._parents[b]
                    ]
                    if any(
                        not self.has_edge(c, d)
                        for c, d in combinations(candidates, 2)
                    ):
                        self.orient(a, b)
                        changed = True

    # -- export -------------------------------------------------------------
    def to_networkx(self):
        """Export as a ``networkx.DiGraph``; undirected edges become
        bidirected pairs."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        for a, b, directed in self.edges():
            g.add_edge(a, b)
            if not directed:
                g.add_edge(b, a)
        return g

    def __repr__(self) -> str:
        return f"CausalGraph(n_nodes={len(self.nodes)}, n_edges={self.n_edges()})"

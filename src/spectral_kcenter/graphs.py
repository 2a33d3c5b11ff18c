"""Undirected simple graphs: construction, validation, matrices, generators.

Nodes are 1-based everywhere in the public surface. Graphs are immutable
and safe to share across threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, GraphFormatError, ParameterError

Edge = tuple[int, int]
GENERATION_RETRIES = 1000  # G(n, p) draws before random_connected_graph gives up


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 1..n with a canonical edge set."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"node count must be positive, got {self.n}")
        for (u, v) in self.edges:
            if u == v:
                raise ParameterError(f"self-loop at node {u}")
            if not (1 <= u < v <= self.n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph, normalizing each edge to (min, max) order."""
        canon = set()
        for (u, v) in edges:
            if u == v:
                raise ParameterError(f"self-loop at node {u}")
            e = (min(u, v), max(u, v))
            if e in canon:
                raise ParameterError(f"duplicate edge {e}")
            canon.add(e)
        return Graph(n, frozenset(canon))

    def degree(self, u: int) -> int:
        return sum(1 for (a, b) in self.edges if a == u or b == u)

    def degrees(self) -> list[int]:
        d = [0] * (self.n + 1)
        for (u, v) in self.edges:
            d[u] += 1
            d[v] += 1
        return d[1:]

    def is_connected(self) -> bool:
        """Union-find connectivity check."""
        parent = list(range(self.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v) in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        root = find(1)
        return all(find(i) == root for i in range(2, self.n + 1))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def path_graph(n: int) -> Graph:
    """Path on n nodes with edges (i, i+1)."""
    if n < 2:
        raise ParameterError(f"path graph needs n >= 2, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def figure1_graph() -> Graph:
    """The 11-node benchmark graph used throughout the experiments."""
    edges = [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (5, 7),
             (7, 8), (8, 9), (8, 10), (9, 10), (10, 11)]
    return Graph(11, frozenset(edges))


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - A as a dense float matrix (exact integers)."""
    L = np.zeros((g.n, g.n), dtype=np.int64)
    for (u, v) in g.edges:
        L[u - 1, u - 1] += 1
        L[v - 1, v - 1] += 1
        L[u - 1, v - 1] -= 1
        L[v - 1, u - 1] -= 1
    return L.astype(float)


def max_degree(g: Graph) -> int:
    return max(g.degrees())


def stochastic(g: Graph, tau: float) -> np.ndarray:
    """Doubly stochastic Z = I - tau*L for 0 < tau <= 1/max_degree.

    The boundary tau = 1/max_degree is admitted: entries stay nonnegative
    and the path closed forms at tau = 1/2 need it.
    """
    d = max_degree(g)
    if d == 0:
        raise ParameterError("graph has no edges")
    if not (0 < tau <= 1.0 / d):
        raise ParameterError(f"tau={tau} outside (0, 1/{d}]")
    return np.eye(g.n) - tau * laplacian(g)


def relabel(g: Graph, perm: dict[int, int]) -> Graph:
    """Apply a node permutation {old: new}; used by equivariance tests."""
    if sorted(perm) != list(range(1, g.n + 1)) or sorted(perm.values()) != list(range(1, g.n + 1)):
        raise ParameterError("perm must be a bijection on 1..n")
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for (u, v) in g.edges))


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n nodes via Pruefer decoding."""
    if n < 2:
        raise ParameterError(f"random tree needs n >= 2, got {n}")
    if n == 2:
        return Graph(2, frozenset({(1, 2)}))
    rng = np.random.default_rng(seed)
    seq = [int(x) for x in rng.integers(1, n + 1, size=n - 2)]
    deg = [1] * (n + 1)
    deg[0] = 0
    for x in seq:
        deg[x] += 1
    leaves = [i for i in range(1, n + 1) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) sample conditioned on connectivity.

    Rejection-resampled on a single advancing RNG stream, so the result
    is deterministic per seed.
    """
    if n < 2:
        raise ParameterError(f"random graph needs n >= 2, got {n}")
    if not (0 < p < 1):
        raise ParameterError(f"edge probability must be in (0,1), got {p}")
    rng = np.random.default_rng(seed)
    for _ in range(GENERATION_RETRIES):
        edges = [(u, v)
                 for u in range(1, n + 1)
                 for v in range(u + 1, n + 1)
                 if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g
    raise GenerationError(
        f"no connected G({n},{p}) sample in {GENERATION_RETRIES} attempts")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line n, then 'u v' lines.

    Blank lines and lines starting with '#' are skipped. Node indices are
    1-based with u < v required.
    """
    n = None
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(lineno, f"expected node count, got {line!r}")
            if n < 1:
                raise GraphFormatError(lineno, f"node count must be positive, got {n}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(lineno, f"non-integer endpoint in {line!r}")
        if u == v:
            raise GraphFormatError(lineno, f"self-loop at node {u}")
        if not (1 <= u < v <= n):
            raise GraphFormatError(lineno, f"edge ({u}, {v}) violates 1 <= u < v <= {n}")
        if (u, v) in seen:
            raise GraphFormatError(lineno, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    if n is None:
        raise GraphFormatError(1, "empty input")
    return Graph(n, frozenset(seen))


def serialize_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for (u, v) in g.sorted_edges())
    return "\n".join(lines) + "\n"

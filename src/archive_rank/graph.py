"""Directed link graphs over core URLs (and their domain projection) with
power-iteration PageRank.

A built :class:`Graph` is immutable, so any number of PageRank runs may
share it concurrently; construction itself is single-writer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .ingest import STRATEGY_ALL, ContentLink, LinkRecord, content_links, counted_links
from .tables import rows
from .urls import core_url_str

if TYPE_CHECKING:  # numpy is imported inside the functions that use it
    import numpy as np

__all__ = [
    "Graph",
    "RankVector",
    "GraphError",
    "build_page_graph",
    "project_domain_graph",
    "inlink_count",
    "pagerank",
    "write_graph",
    "read_graph",
    "read_nodes",
    "write_ranks",
    "read_ranks",
    "read_rank_map",
]


class GraphError(ValueError):
    """Raised for graph operations on unusable inputs (e.g. empty graphs)."""


@dataclass(frozen=True)
class Graph:
    """Dense-id directed graph. ``names[i]`` is the node behind id ``i``;
    edges are deduplicated and sorted; self-loops are never stored."""

    names: tuple[str, ...]
    src: np.ndarray  # int64 edge sources
    dst: np.ndarray  # int64 edge targets

    def __post_init__(self):
        if len(self.src) != len(self.dst):
            raise GraphError("edge arrays disagree in length")

    @property
    def node_count(self) -> int:
        return len(self.names)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    @property
    def ids(self) -> dict[str, int]:
        cached = self.__dict__.get("_ids")
        if cached is None:
            cached = {name: i for i, name in enumerate(self.names)}
            self.__dict__["_ids"] = cached
        return cached

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]]) -> "Graph":
        """Build from (source, target) name pairs; parallel edges collapse,
        self-loops drop, node ids are assigned in sorted-name order."""
        pairs = {(s, t) for s, t in edges if s != t}
        return cls.from_pairs({n for pair in pairs for n in pair}, pairs)

    @classmethod
    def from_pairs(cls, names: Iterable[str], pairs: set[tuple[str, str]]) -> "Graph":
        """Build from node names and a set of (source, target) name pairs;
        node ids are assigned in sorted-name order."""
        import numpy as np

        names = sorted(set(names))
        ids = {n: i for i, n in enumerate(names)}
        arr = np.array(sorted((ids[s], ids[t]) for s, t in pairs), dtype=np.int64).reshape(-1, 2)
        return cls(tuple(names), arr[:, 0].copy(), arr[:, 1].copy())


@dataclass(frozen=True)
class RankVector:
    """PageRank scores by node id; scores sum to one."""

    scores: np.ndarray
    damping: float
    iterations_run: int
    residual: float


def build_page_graph(links: Iterable[ContentLink]) -> Graph:
    """Graph over the core URLs of content-link sources and targets."""
    return Graph.from_edges((link.source, link.target) for link in links)


def project_domain_graph(g: Graph, domain_fn: Callable[[str], str]) -> Graph:
    """Collapse page nodes to domains; intra-domain edges are dropped but
    every domain keeps a node, even when all its edges were internal."""
    domains = [domain_fn(name) for name in g.names]
    pairs = {(domains[s], domains[t]) for s, t in zip(g.src, g.dst) if domains[s] != domains[t]}
    return Graph.from_pairs(domains, pairs)


def inlink_count(links: Iterable[LinkRecord], doc: str, dedup: str = STRATEGY_ALL) -> int:
    """Number of content links pointing at ``doc`` (a core URL) that the
    ``dedup`` strategy counts (see :func:`archive_rank.ingest.counted_links`)."""
    target = core_url_str(doc)
    return sum(1 for link in counted_links(content_links(links), dedup) if link.target == target)


def pagerank(
    g: Graph,
    damping: float = 0.85,
    tolerance: float = 1e-9,
    max_iterations: int = 100,
) -> RankVector:
    """Power iteration with uniform teleport; dangling mass is spread
    uniformly each step, so scores stay a probability distribution."""
    import numpy as np

    n = g.node_count
    if n == 0:
        raise GraphError("pagerank over an empty graph")
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    outdeg = np.bincount(g.src, minlength=n).astype(np.float64)
    has_out = outdeg > 0
    # in-edges grouped by target, by ascending source within a group: one fixed
    # summation order, so the ranks are the same floats on every run
    order = np.argsort(g.dst, kind="stable")
    src, dst = g.src[order], g.dst[order]
    weights = 1.0 / outdeg[src]
    scores = np.full(n, 1.0 / n)
    residual = 0.0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        dangling = scores[~has_out].sum()
        nxt = damping * np.bincount(dst, weights=weights * scores[src], minlength=n)
        nxt += (damping * dangling + (1.0 - damping)) / n
        residual = float(np.abs(nxt - scores).sum())
        scores = nxt
        if residual < tolerance:
            break
    return RankVector(scores, damping, iterations, residual)


# ---------------------------------------------------------------------------
# persistence


def write_graph(g: Graph, graph_fh, nodes_fh) -> None:
    graph_fh.write(f"#nodes {g.node_count} #edges {g.edge_count}\n")
    for s, t in zip(g.src, g.dst):
        graph_fh.write(f"{s} {t}\n")
    for i, name in enumerate(g.names):
        nodes_fh.write(f"{i}\t{name}\n")


def read_graph(graph_fh, nodes_fh) -> Graph:
    import numpy as np

    header = graph_fh.readline().split()
    n_nodes, n_edges = int(header[1]), int(header[3])
    src = np.empty(n_edges, dtype=np.int64)
    dst = np.empty(n_edges, dtype=np.int64)
    for i in range(n_edges):
        a, b = graph_fh.readline().split()
        src[i], dst[i] = int(a), int(b)
    names = read_nodes(nodes_fh)
    if len(names) != n_nodes:
        raise GraphError(f"graph header names {n_nodes} nodes, the nodes file {len(names)}")
    return Graph(names, src, dst)


def read_nodes(fh) -> tuple[str, ...]:
    """Node names in id order, as :func:`write_graph` writes them."""
    return tuple(name for _idx, name in rows(fh))


def write_ranks(rank: RankVector, fh) -> None:
    for i, score in enumerate(rank.scores.tolist()):
        fh.write(f"{i} {score!r}\n")


def _rank_values(fh) -> list[float]:
    return [float(line.split()[1]) for line in fh if line.strip()]


def read_ranks(fh) -> np.ndarray:
    import numpy as np

    return np.array(_rank_values(fh), dtype=np.float64)


def read_rank_map(nodes_fh, ranks_fh) -> dict[str, float]:
    """Score by node name, from a nodes file and its rank file."""
    return dict(zip(read_nodes(nodes_fh), _rank_values(ranks_fh)))

"""Directed link graphs over core URLs (and their domain projection) with
power-iteration PageRank.

A built :class:`Graph` is immutable, so any number of PageRank runs may
share it concurrently; construction itself is single-writer.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ._arrays import sorted_distinct
from .ingest import ContentLink
from .tables import rows

if TYPE_CHECKING:  # numpy is imported inside the functions that use it
    import numpy as np

__all__ = [
    "Graph",
    "RankVector",
    "GraphError",
    "build_page_graph",
    "project_domain_graph",
    "pagerank",
    "write_edges",
    "write_nodes",
    "read_nodes",
    "write_ranks",
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

    @cached_property
    def ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()) -> "Graph":
        """Build from (source, target) name pairs plus ``nodes`` that may have
        no edge; parallel edges collapse, self-loops drop, node ids are
        assigned in sorted-name order."""
        import numpy as np

        ids: dict[str, int] = {}  # first-seen ids, kept as ints while streaming
        ends = array("q")
        for s, t in edges:
            if s != t:
                ends.append(ids.setdefault(s, len(ids)))
                ends.append(ids.setdefault(t, len(ids)))
        for name in nodes:
            ids.setdefault(name, len(ids))
        names = sorted(ids)
        n = len(names)
        sorted_id = np.empty(n, dtype=np.int64)  # by first-seen id
        sorted_id[[ids[name] for name in names]] = np.arange(n, dtype=np.int64)
        pairs = sorted_id[np.frombuffer(ends, dtype=np.int64)]
        del ends
        keys = pairs[0::2] * n
        keys += pairs[1::2]
        del pairs
        keys = sorted_distinct(keys)
        return cls(tuple(names), keys // n, keys % n)


@dataclass(frozen=True)
class RankVector:
    """PageRank scores by node id; scores sum to one."""

    scores: np.ndarray
    iterations_run: int
    residual: float


def build_page_graph(links: Iterable[ContentLink]) -> Graph:
    """Graph over the core URLs of content-link sources and targets."""
    return Graph.from_edges((link.source, link.target) for link in links)


def project_domain_graph(g: Graph, domain_fn: Callable[[str], str]) -> Graph:
    """Collapse page nodes to domains; intra-domain edges are dropped but
    every domain keeps a node, even when all its edges were internal."""
    domains = [domain_fn(name) for name in g.names]
    edges = zip(memoryview(g.src), memoryview(g.dst))  # Python ints, without a list of them
    return Graph.from_edges(((domains[s], domains[t]) for s, t in edges), domains)


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
    del order
    weights = np.divide(1.0, outdeg.take(src))
    flow = np.empty(len(src))  # each edge's share of its source's score, reused
    scores = np.full(n, 1.0 / n)
    residual = 0.0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        dangling = scores[~has_out].sum()
        np.take(scores, src, out=flow)
        flow *= weights
        nxt = damping * np.bincount(dst, weights=flow, minlength=n)
        nxt += (damping * dangling + (1.0 - damping)) / n
        residual = float(np.abs(nxt - scores).sum())
        scores = nxt
        if residual < tolerance:
            break
    return RankVector(scores, iterations, residual)


# ---------------------------------------------------------------------------
# persistence


def write_edges(g: Graph, fh) -> None:
    fh.write(f"#nodes {g.node_count} #edges {g.edge_count}\n")
    for s, t in zip(memoryview(g.src), memoryview(g.dst)):
        fh.write(f"{s} {t}\n")


def write_nodes(g: Graph, fh) -> None:
    for i, name in enumerate(g.names):
        fh.write(f"{i}\t{name}\n")


def _by_id(fields_rows) -> Iterator[str]:
    """The value of each (id, value) row; raises ValueError unless the ids
    number the rows 0..n-1 in order."""
    for i, fields in enumerate(fields_rows):
        if len(fields) != 2 or fields[0] != str(i):
            raise ValueError(f"row {i} is not (id {i}, value): {fields}")
        yield fields[1]


def read_nodes(lines) -> tuple[str, ...]:
    """Node names in id order, as :func:`write_nodes` writes them."""
    return tuple(_by_id(rows(lines)))


def write_ranks(rank: RankVector, fh) -> None:
    for i, score in enumerate(rank.scores.tolist()):
        fh.write(f"{i} {score!r}\n")


def read_rank_map(nodes, ranks) -> dict[str, float]:
    """Score by node name, from the lines of a nodes file and of its rank
    file. Raises ValueError unless both number their rows 0..n-1 in order
    and have one row per node; a row-count mismatch names the nodes file."""
    names = read_nodes(nodes)
    scores = [float(score) for score in _by_id(line.split() for line in ranks if line.strip())]
    if len(scores) != len(names):
        raise ValueError(f"{len(scores)} rows, but {getattr(nodes, 'name', '<stream>')} lists {len(names)} nodes")
    return dict(zip(names, scores))

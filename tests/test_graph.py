import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import sparse

from archive_rank import tables
from archive_rank.graph import (
    Graph,
    GraphError,
    build_page_graph,
    pagerank,
    project_domain_graph,
    read_nodes,
    read_rank_map,
    write_edges,
    write_nodes,
    write_ranks,
)
from archive_rank.ingest import content_links
from conftest import inlink_count, link


def dense_pagerank(n: int, edges, damping: float, tol: float = 1e-13, iters: int = 5000):
    """Independent oracle: explicit dense transition matrix, dangling
    columns replaced by uniform distributions, straight power iteration."""
    M = np.zeros((n, n))
    outdeg = np.zeros(n)
    for s, _t in edges:
        outdeg[s] += 1
    for s, t in edges:
        M[t, s] = 1.0 / outdeg[s]
    for j in range(n):
        if outdeg[j] == 0:
            M[:, j] = 1.0 / n
    v = np.full(n, 1.0 / n)
    for _ in range(iters):
        nxt = damping * (M @ v) + (1.0 - damping) / n
        if np.abs(nxt - v).sum() < tol:
            return nxt
        v = nxt
    return v


def csr_pagerank(g: Graph, damping: float, tolerance: float, max_iterations: int):
    """The same power iteration as a sparse matrix-vector product over a
    CSR transition matrix (row = target, column = source)."""
    n = g.node_count
    outdeg = np.bincount(g.src, minlength=n).astype(np.float64)
    weights = 1.0 / outdeg[g.src] if g.edge_count else np.zeros(0)
    transition = sparse.csr_matrix((weights, (g.dst, g.src)), shape=(n, n))
    scores = np.full(n, 1.0 / n)
    for iterations in range(1, max_iterations + 1):
        nxt = damping * (transition @ scores)
        nxt += (damping * scores[outdeg == 0].sum() + (1.0 - damping)) / n
        residual = float(np.abs(nxt - scores).sum())
        scores = nxt
        if residual < tolerance:
            break
    return scores, iterations, residual


def graph_from_name_pairs(edges, nodes=()) -> Graph:
    """Reference construction over Python sets: the set of name pairs, then
    the sorted list of id pairs."""
    pairs = {(s, t) for s, t in edges if s != t}
    names = sorted({n for pair in pairs for n in pair} | set(nodes))
    ids = {n: i for i, n in enumerate(names)}
    arr = np.array(sorted((ids[s], ids[t]) for s, t in pairs), dtype=np.int64).reshape(-1, 2)
    return Graph(tuple(names), arr[:, 0].copy(), arr[:, 1].copy())


NODE_NAMES = st.text(alphabet="abcd", max_size=2)  # few names: parallel edges and self-loops are common


@given(edges=st.lists(st.tuples(NODE_NAMES, NODE_NAMES), max_size=40), nodes=st.lists(NODE_NAMES, max_size=8))
@example(edges=[], nodes=[])
@example(edges=[("a", "a")], nodes=[])  # a node seen only in a self-loop is no node
@example(edges=[("b", "a"), ("b", "a"), ("a", "a"), ("c", "c")], nodes=["d", "a", "d"])
def test_from_edges_equals_the_set_based_construction(edges, nodes):
    got = Graph.from_edges(iter(edges), iter(nodes))  # one pass over each
    want = graph_from_name_pairs(edges, nodes)
    assert got.names == want.names
    for ours, theirs in ((got.src, want.src), (got.dst, want.dst)):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


class TestBuildPageGraph:
    def test_parallel_edges_collapse(self):
        g = build_page_graph(
            content_links(
                [
                    link("http://a.de/", "http://b.de/"),
                    link("http://a.de/", "http://b.de/"),
                    link("http://b.de/", "http://a.de/"),
                ]
            )
        )
        assert g.node_count == 2 and g.edge_count == 2

    def test_empty(self):
        g = build_page_graph([])
        assert g.node_count == 0 and g.edge_count == 0

    def test_core_url_collapse_across_revisions(self):
        links = [
            link("http://a.de/x?r=1", "http://b.de/", when=1),
            link("http://a.de/x?r=2", "http://b.de/", when=2),
            link("http://a.de/x?r=3", "http://b.de/", when=3),
        ]
        g = build_page_graph(content_links(links))
        assert g.node_count == 2 and g.edge_count == 1

    def test_self_loops_dropped(self):
        g = build_page_graph(content_links([link("http://a.de/x?q=1", "http://a.de/x")]))
        assert g.edge_count == 0


class TestDomainProjection:
    def test_cross_domain_edge(self):
        g = Graph.from_edges([("http://a.x.de/1", "http://b.y.de/2")])
        d = project_domain_graph(g, lambda u: ".".join(u.split("//")[1].split("/")[0].split(".")[-2:]))
        assert set(d.names) == {"x.de", "y.de"} and d.edge_count == 1

    def test_intra_domain_collapses_to_isolated_node(self):
        g = Graph.from_edges([("http://a.de/1", "http://a.de/2")])
        d = project_domain_graph(g, lambda u: "a.de")
        assert d.names == ("a.de",) and d.edge_count == 0

    def test_parallel_domain_edges_dedup(self):
        g = Graph.from_edges(
            [("http://a.de/1", "http://b.de/1"), ("http://a.de/2", "http://b.de/2")]
        )
        d = project_domain_graph(g, lambda u: u.split("//")[1].split("/")[0])
        assert d.edge_count == 1


class TestInlinkCount:
    def test_no_links(self):
        assert inlink_count([], "http://t.de/", "all") == 0

    def test_two_distinct_sources_count_in_both_modes(self):
        links = [
            link("http://s1.de/", "http://t.de/", "x", when=1),
            link("http://s2.de/", "http://t.de/", "x", when=2),
        ]
        assert inlink_count(links, "http://t.de/", "all") == 2
        assert inlink_count(links, "http://t.de/", "unique_per_revision") == 2

    def test_repeat_within_one_revision(self):
        links = [
            link("http://s.de/", "http://t.de/", "x", when=1),
            link("http://s.de/", "http://t.de/", "x", when=1),
        ]
        assert inlink_count(links, "http://t.de/", "unique_per_revision") == 1
        assert inlink_count(links, "http://t.de/", "all") == 2

    def test_counts_content_links_only(self):
        links = [
            link("http://s.de/", "http://t.de/?v=1", "x"),
            link("http://s.de/", "http://t.de/", pattern="IMG/src"),
            link("http://s.de/", "http://t.de/", pattern="IFRAME/src"),
        ]
        assert inlink_count(links, "http://t.de/") == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            inlink_count([], "http://t.de/", "per_source")


class TestPagerank:
    def test_two_node_cycle_is_uniform(self):
        g = Graph.from_edges([("a", "b"), ("b", "a")])
        for damping in (0.3, 0.85, 0.99):
            rv = pagerank(g, damping=damping)
            np.testing.assert_allclose(rv.scores, [0.5, 0.5], atol=1e-12)

    def test_three_node_cycle_is_uniform(self):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        rv = pagerank(g)
        np.testing.assert_allclose(rv.scores, [1 / 3] * 3, atol=1e-9)

    def test_star_with_dangling_center_matches_dense_oracle(self):
        g = Graph.from_edges([("a", "c"), ("b", "c")])
        rv = pagerank(g, damping=0.85, tolerance=1e-13, max_iterations=500)
        ids = g.ids
        edges = [(ids["a"], ids["c"]), (ids["b"], ids["c"])]
        oracle = dense_pagerank(3, edges, 0.85)
        assert np.abs(rv.scores - oracle).sum() < 1e-9

    def test_empty_graph_raises(self):
        with pytest.raises(GraphError):
            pagerank(Graph.from_edges([]))

    def test_scores_sum_to_one_with_dangling_nodes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            edges = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(n * 2)}
            edges = {(s, t) for s, t in edges if s != t}
            if not edges:
                continue
            names = [f"n{i}" for i in range(n)]
            g = Graph.from_edges([(names[s], names[t]) for s, t in edges])
            rv = pagerank(g)
            assert abs(rv.scores.sum() - 1.0) < 1e-9
            assert (rv.scores >= 0).all()

    def test_permutation_equivariance(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("d", "a")]
        g1 = Graph.from_edges(edges)
        renamed = {"a": "z", "b": "y", "c": "x", "d": "w"}
        g2 = Graph.from_edges([(renamed[s], renamed[t]) for s, t in edges])
        rv1 = pagerank(g1, tolerance=1e-13, max_iterations=500)
        rv2 = pagerank(g2, tolerance=1e-13, max_iterations=500)
        for name in renamed:
            s1 = rv1.scores[g1.ids[name]]
            s2 = rv2.scores[g2.ids[renamed[name]]]
            assert abs(s1 - s2) < 1e-9

    def test_uniform_on_symmetric_regular_graph(self):
        # bidirectional ring: every node has in/out degree 2
        n = 8
        edges = []
        for i in range(n):
            edges.append((f"n{i}", f"n{(i + 1) % n}"))
            edges.append((f"n{(i + 1) % n}", f"n{i}"))
        rv = pagerank(Graph.from_edges(edges), tolerance=1e-12, max_iterations=500)
        np.testing.assert_allclose(rv.scores, np.full(n, 1 / n), atol=1e-9)

    def test_random_graphs_match_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, n * 3))
            edges = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)}
            edges = sorted((s, t) for s, t in edges if s != t)
            if not edges:
                continue
            names = [f"node{i:02d}" for i in range(n)]
            g = Graph.from_edges([(names[s], names[t]) for s, t in edges])
            id_edges = [(g.ids[names[s]], g.ids[names[t]]) for s, t in edges]
            rv = pagerank(g, damping=0.85, tolerance=1e-13, max_iterations=2000)
            oracle = dense_pagerank(g.node_count, id_edges, 0.85)
            assert np.abs(rv.scores - oracle).sum() < 1e-9

    def test_bit_identical_to_sparse_matrix_product(self):
        """Summing each node's in-edges by ascending source gives exactly the
        floats of the CSR product, so page_rank.tsv does not move."""
        rng = np.random.default_rng(23)
        graphs = [Graph.from_edges([], ["a", "b", "c"])]  # edgeless: every node dangles
        for _ in range(25):
            n = int(rng.integers(2, 400))
            names = [f"n{i:03d}" for i in range(n)]
            pairs = {(names[s], names[t]) for s, t in rng.integers(n, size=(int(rng.integers(1, n * 6)), 2)) if s != t}
            graphs.append(Graph.from_edges(pairs, names))  # names without out-edges dangle
        for g in graphs:
            for damping, tolerance, max_iterations in ((0.85, 1e-9, 100), (0.5, 1e-15, 40)):
                rv = pagerank(g, damping, tolerance, max_iterations)
                scores, iterations, residual = csr_pagerank(g, damping, tolerance, max_iterations)
                assert rv.scores.tobytes() == scores.tobytes()
                assert (rv.iterations_run, rv.residual) == (iterations, residual)

    def test_reports_iterations_and_residual(self):
        g = Graph.from_edges([("a", "b"), ("b", "a")])
        rv = pagerank(g, tolerance=1e-9, max_iterations=50)
        assert 1 <= rv.iterations_run <= 50
        assert rv.residual < 1e-9


class TestPersistence:
    def test_graph_round_trip(self, tmp_path):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        with open(tmp_path / "graph.tsv", "w") as gf, open(tmp_path / "nodes.tsv", "w") as nf:
            write_edges(g, gf)
            write_nodes(g, nf)
        assert (tmp_path / "graph.tsv").read_text().splitlines() == ["#nodes 3 #edges 3", "0 1", "1 2", "2 0"]
        with open(tmp_path / "nodes.tsv") as nf:
            assert read_nodes(nf) == g.names == ("a", "b", "c")

    def test_rank_map_by_node_name(self, tmp_path):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
        rv = pagerank(g)
        with open(tmp_path / "nodes.tsv", "w") as nf:
            write_nodes(g, nf)
        with open(tmp_path / "ranks.tsv", "w") as fh:
            write_ranks(rv, fh)
        with open(tmp_path / "nodes.tsv") as nf:
            assert read_nodes(nf) == g.names
        with open(tmp_path / "nodes.tsv") as nf, open(tmp_path / "ranks.tsv") as rf:
            ranks = read_rank_map(nf, rf)
        assert ranks == {name: rv.scores[i] for i, name in enumerate(g.names)}

    @pytest.mark.parametrize(
        "nodes, ranks, problem, named",
        [
            ("0\ta\n1\tb\n2\tc\n", "0 0.5\n1 0.5\n", "2 rows, but", "ranks.tsv"),
            ("0\ta\n1\tb\n2\tc\n", "0 0.25\n1 0.25\n2 0.25\n3 0.25\n", "4 rows, but", "nodes.tsv"),
            ("0\ta\n1\tb\n2\tc\n", "0 0.25\n2 0.25\n1 0.5\n", "row 1 is not", "ranks.tsv"),
            ("0\ta\n1\tb\n2\tc\n", "0 0.5\n1\n2 0.5\n", "row 1 is not", "ranks.tsv"),
            ("0\ta\n2\tc\n1\tb\n", "0 0.25\n1 0.25\n2 0.5\n", "row 1 is not", "nodes.tsv"),
        ],
        ids=["short", "long", "ranks-out-of-order", "no-score", "nodes-out-of-order"],
    )
    def test_rank_map_checks_ids_and_rows_against_the_nodes(self, tmp_path, nodes, ranks, problem, named):
        (tmp_path / "nodes.tsv").write_text(nodes)
        (tmp_path / "ranks.tsv").write_text(ranks)
        with pytest.raises(ValueError, match=problem) as err:
            tables.read(read_rank_map, tmp_path / "nodes.tsv", tmp_path / "ranks.tsv")
        assert named in str(err.value)

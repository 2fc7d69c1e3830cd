"""
Link graphs and PageRank
========================

Content links induce a directed graph over core URLs; projecting its
nodes to registrable domains gives a second, coarser authority signal.
``content_links`` resolves both ends of every link, core URL and domain,
once; the graph reads only its result.
"""
import numpy as np

from archive_rank.graph import build_page_graph, pagerank, project_domain_graph
from archive_rank.ingest import LinkRecord, content_links, counted_links


def L(src, dst, when=0):
    return LinkRecord(src, when, dst, "A/href", "link")


links = [
    L("http://blog.de/a", "http://zeitung.de/merkel"),
    L("http://blog.de/b", "http://zeitung.de/merkel"),
    L("http://forum.de/t1", "http://zeitung.de/merkel"),
    L("http://zeitung.de/merkel", "http://zeitung.de/"),
    L("http://forum.de/t1", "http://blog.de/a"),
    L("http://forum.de/t2", "http://blog.de/a"),
]

content = content_links(links)
page = build_page_graph(content)
print(f"page graph: {page.node_count} nodes, {page.edge_count} edges")
inlinks = sum(link.target == "http://zeitung.de/merkel" for link in counted_links(content, "all"))
print("inlinks of zeitung.de/merkel:", inlinks)

ranks = pagerank(page, damping=0.85, tolerance=1e-12, max_iterations=200)
print(f"\nconverged in {ranks.iterations_run} iterations (residual {ranks.residual:.2e})")
order = np.argsort(-ranks.scores)
for i in order:
    print(f"  {ranks.scores[i]:.4f}  {page.names[i]}")
print("score mass:", round(float(ranks.scores.sum()), 12))

domain_by_core = {link.source: link.source_domain for link in content}
domain_by_core.update((link.target, link.target_domain) for link in content)
domains = project_domain_graph(page, domain_by_core.__getitem__)
domain_ranks = pagerank(domains)
print(f"\ndomain projection: {domains.node_count} nodes, {domains.edge_count} edges")
for i in np.argsort(-domain_ranks.scores):
    print(f"  {domain_ranks.scores[i]:.4f}  {domains.names[i]}")

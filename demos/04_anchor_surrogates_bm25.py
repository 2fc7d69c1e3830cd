"""
Anchor-text surrogates and BM25
===============================

A document's searchable stand-in is the concatenation of the anchor
texts pointing at it. Two aggregation strategies exist: keep one unique
anchor per (source revision, target) pair, or keep every occurrence.
``content_links`` resolves the links once and flags the first of each
repeat; both strategies read its result.
"""
from archive_rank.anchor_index import (
    anchor_distribution,
    bm25_score,
    build_stats,
    build_surrogates,
    term_stats,
    tokenize_text,
)
from archive_rank.ingest import LinkRecord, RevisionRecord, content_links

DAY = 86400
T0 = 1_230_000_000  # late 2008

revisions = [
    RevisionRecord("http://zeitung.de/merkel", T0, "http://zeitung.de/merkel", "zeitung.de"),
    RevisionRecord("http://blog.de/kanzlerin", T0, "http://blog.de/kanzlerin", "blog.de"),
]
links = [
    LinkRecord("http://s1.de/", T0, "http://zeitung.de/merkel", "A/href", "Angela Merkel"),
    LinkRecord("http://s1.de/", T0, "http://zeitung.de/merkel", "A/href", "Angela Merkel"),
    LinkRecord("http://s2.de/", T0 + 30 * DAY, "http://zeitung.de/merkel", "A/href", "die Kanzlerin"),
    LinkRecord("http://s3.de/", T0 + 90 * DAY, "http://blog.de/kanzlerin", "A/href", "Merkel Kommentar"),
]
content = content_links(links)
print("first of its repeat:", [link.first for link in content])

for strategy in ("unique_per_revision", "all"):
    surrogates = build_surrogates(content, revisions, strategy)
    doc = surrogates["http://zeitung.de/merkel"]
    print(f"{strategy}: {len(doc.anchor_instances)} instances, terms {doc.term_freqs}")

surrogates = build_surrogates(content, revisions, "unique_per_revision")
stats = build_stats(surrogates)
query = tokenize_text("Angela Merkel")
print(f"\nindex: N={stats.num_docs}, avgdl={stats.avg_doc_length:.2f}")
for doc_id, doc in surrogates.items():
    score = bm25_score(query, doc, stats, k1=1.2, b=0.75)
    ts = term_stats(doc, stats, query)
    print(f"  {doc_id}: bm25={score:.4f} max_tf={ts.max_term_freq:.2f} len={ts.doc_len}")

# how widely is each anchor text used? (frequency-of-frequency table)
print("\nanchor spread (year, targets-per-anchor, anchors; year 0 = all years):")
for row in anchor_distribution(content, group_by_year=True):
    print(" ", row)

"""
Soft labels, manual agreement, and the stratified sample
========================================================

Training labels come from two sources: merged snapshots of an external
engine's top results (label = inverse best rank) and human 0/1/2 grades.
The evaluation pool is a feature-stratified sample topped up with every
externally endorsed document.
"""
import numpy as np

from archive_rank.labeling import (
    ResultSnapshot,
    average_pairwise_kappa,
    intersect_with_index,
    merge_snapshots,
    pairwise_kappas,
    pool_with_positives,
    soft_label,
    stratified_sample,
)

# two snapshots of the same query, fetched months apart
jan = ResultSnapshot(1, "2014-01-10", ("http://a.de/bio", "http://b.de/news", "http://c.de/fan"))
mar = ResultSnapshot(1, "2014-03-05", ("http://b.de/news", "http://a.de/bio", "http://d.de/neu"))
merged = merge_snapshots([jan, mar])
print("merged best ranks:", merged)

archived = ["http://a.de/bio", "http://c.de/fan", "http://x.de/misc"]
dataset_b = intersect_with_index(merged, archived)
print("dataset B (externally ranked AND retrievable):", dataset_b)
for doc in archived:
    print(f"  soft label {doc}: {soft_label(doc, merged):.3f}")

# inter-assessor agreement on shared grades
judgments = {
    "ann": {"d1": 2, "d2": 0, "d3": 1, "d4": 0},
    "ben": {"d1": 2, "d2": 0, "d3": 1, "d4": 1},
    "cem": {"d1": 2, "d2": 1, "d3": 1, "d4": 0},
}
print(f"\naverage pairwise kappa: {average_pairwise_kappa(pairwise_kappas(judgments)):.3f}")

# stratify twenty documents over three feature dimensions, then pool
rng = np.random.default_rng(42)
docs = [f"http://d{i:02d}.de/" for i in range(20)]
features = rng.normal(size=(20, 3))
sample = stratified_sample(docs, features, per_partition=(2, 4), seed=7)
pool = pool_with_positives(sample, dataset_b)
print(f"\nsampled {len(sample)} of {len(docs)}; pool with positives:")
for doc, provenance in pool.items():
    print(f"  {provenance:8s} {doc}")

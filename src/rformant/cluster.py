"""UPGMA clustering of utterance profiles and Newick serialization.

Average pair group linkage: the distance between two clusters is the
arithmetic mean of all their cross-cluster leaf distances, maintained
incrementally by size-weighted averaging. Merge heights never decrease,
so the tree is ultrametric and can be drawn with all leaves at height 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import DistanceMatrix

# characters a bare Newick label may not hold; "[" and "]" open and close comments
_NEWICK_UNSAFE = set("(),:;[]'\"\t\n ")


@dataclass(frozen=True)
class Dendrogram:
    """Result of agglomerative clustering over labeled leaves.

    Each link is (left id, right id, distance, size): leaves are 0..m-1 in
    label order, and merge k creates node m+k.
    """

    labels: tuple[str, ...]
    links: tuple[tuple[int, int, float, int], ...]

    def __post_init__(self):
        m = len(self.labels)
        if len(self.links) != m - 1:
            raise ValueError(f"expected {m - 1} merges for {m} leaves")
        dists = [d for _, _, d, _ in self.links]
        for a, b in zip(dists, dists[1:]):
            if b < a - 1e-9:
                raise ValueError("merge distances must be nondecreasing")
        # live nodes and their sizes; m - 1 valid merges leave one node of size m
        sizes = dict.fromkeys(range(m), 1)
        for k, (li, ri, _, size) in enumerate(self.links):
            if li == ri or li not in sizes or ri not in sizes:
                raise ValueError(f"merge {k} must join two distinct unmerged nodes")
            if size != sizes.pop(li) + sizes.pop(ri):
                raise ValueError(f"merge {k} size must equal its children's sizes summed")
            sizes[m + k] = size

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """The leaf ids under each node id, left child's leaves first; the
        last entry is the root's, the leaves in drawing order."""
        groups = [(i,) for i in range(len(self.labels))]
        for li, ri, _, _ in self.links:
            groups.append(groups[li] + groups[ri])
        return tuple(groups)

    @property
    def merges(self) -> tuple[tuple[str, str, float, int], ...]:
        """The links with each node named by its leaf labels, left child first."""
        names = ["".join(self.labels[i] for i in group) for group in self.groups]
        return tuple((names[li], names[ri], d, size) for li, ri, d, size in self.links)


def upgma(d: DistanceMatrix) -> Dendrogram:
    """Cluster by repeatedly merging the closest pair under average linkage.

    Distance from a merged cluster AB to any C is the size-weighted mean
    (|A| d(A,C) + |B| d(B,C)) / (|A|+|B|). Of equal minima the first in
    row-major order wins, the smallest index pair in the current cluster
    ordering; the merged cluster takes the smaller index's position.
    """
    labels = d.labels
    m = len(labels)
    cur = d.values.copy()
    sizes = [1] * m
    ids = list(range(m))
    links: list[tuple[int, int, float, int]] = []
    next_id = m
    upper = np.triu(np.ones((m, m), dtype=bool), k=1)

    while len(ids) > 1:
        k = len(ids)
        i, j = divmod(int(np.argmin(np.where(upper[:k, :k], cur, np.inf))), k)
        best_d = cur[i, j]
        size = sizes[i] + sizes[j]
        links.append((ids[i], ids[j], float(best_d), size))

        merged_row = (sizes[i] * cur[i, :] + sizes[j] * cur[j, :]) / size
        cur[i, :] = merged_row
        cur[:, i] = merged_row
        cur[i, i] = 0.0
        cur = np.delete(np.delete(cur, j, axis=0), j, axis=1)

        sizes[i] = size
        ids[i] = next_id
        del sizes[j], ids[j]
        next_id += 1

    return Dendrogram(labels=labels, links=tuple(links))


def _newick_label(label: str) -> str:
    """A label bare, or single-quoted with each ' doubled when it is empty
    or holds a character that Newick reserves."""
    if label and not set(label) & _NEWICK_UNSAFE:
        return label
    return "'" + label.replace("'", "''") + "'"


def to_newick(t: Dendrogram) -> str:
    """Serialize as Newick with ultrametric branch lengths.

    A node merged at distance D sits at height D/2; each branch length is
    the height difference to the parent, so leaf-to-leaf path lengths
    reproduce the merge distances. A label that Newick cannot hold bare is
    single-quoted.
    """
    nodes = [(_newick_label(label), 0.0) for label in t.labels]  # (text, height) by id
    for li, ri, dist, _ in t.links:
        h = dist / 2.0
        left, right = (f"{text}:{format(float(h - child_h), '.12g')}"
                       for text, child_h in (nodes[li], nodes[ri]))
        nodes.append((f"({left},{right})", h))
    return nodes[-1][0] + ";"


def cophenetic_matrix(t: Dendrogram) -> DistanceMatrix:
    """Leaf-pair distances implied by the tree: the height pairs join at."""
    m = len(t.labels)
    groups = t.groups
    coph = np.zeros((m, m))
    for li, ri, dist, _ in t.links:
        coph[np.ix_(groups[li], groups[ri])] = dist
        coph[np.ix_(groups[ri], groups[li])] = dist
    return DistanceMatrix(t.labels, coph)

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from rformant.cluster import Dendrogram, cophenetic_matrix, to_newick, upgma
from rformant.stats import DistanceMatrix


def dmatrix(labels, pairs):
    m = len(labels)
    v = np.zeros((m, m))
    for (i, j), d in pairs.items():
        v[i, j] = v[j, i] = d
    return DistanceMatrix(tuple(labels), v)


def rand_dmatrix(m, seed):
    rng = np.random.default_rng(seed)
    v = np.zeros((m, m))
    iu = np.triu_indices(m, 1)
    v[iu] = rng.uniform(1.0, 9.0, iu[0].size)
    return DistanceMatrix(tuple(f"u{i}" for i in range(m)), v + v.T)


def mean_linkage_oracle(dm):
    """UPGMA by definition: cluster distance = mean over all leaf pairs.

    Never uses the incremental update formula, so it checks it.
    """
    clusters = [frozenset([i]) for i in range(len(dm.labels))]
    orig = dm.values
    heights = []
    partitions = []
    while len(clusters) > 1:
        best = None
        best_d = np.inf
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                pairs = [(a, b) for a in clusters[i] for b in clusters[j]]
                d = float(np.mean([orig[a, b] for a, b in pairs]))
                if d < best_d:
                    best, best_d = (i, j), d
        i, j = best
        merged = clusters[i] | clusters[j]
        heights.append(best_d)
        partitions.append(merged)
        clusters[i] = merged
        del clusters[j]
    return heights, partitions


def test_two_leaves():
    t = upgma(dmatrix(["A", "B"], {(0, 1): 5.0}))
    assert t.merges == (("A", "B", 5.0, 2),)
    assert to_newick(t) == "(A:2.5,B:2.5);"


def test_three_leaf_weighted_average():
    t = upgma(dmatrix(["A", "B", "C"], {(0, 1): 1.0, (0, 2): 4.0, (1, 2): 5.0}))
    assert [(a, b, d) for a, b, d, _ in t.merges] == [
        ("A", "B", 1.0),
        ("AB", "C", 4.5),
    ]
    assert to_newick(t) == "((A:0.5,B:0.5):1.75,C:2.25);"


def test_equal_distances_tie_rule():
    m = 4
    v = np.full((m, m), 3.0)
    np.fill_diagonal(v, 0.0)
    t = upgma(DistanceMatrix(("u1", "u2", "u3", "u4"), v))
    assert [(a, b) for a, b, _, _ in t.merges] == [
        ("u1", "u2"),
        ("u1u2", "u3"),
        ("u1u2u3", "u4"),
    ]
    assert all(d == 3.0 for _, _, d, _ in t.merges)


def test_chain_blocks_hand_heights():
    dm = dmatrix(
        ["A", "B", "C", "D"],
        {
            (0, 1): 2.0,
            (2, 3): 3.0,
            (0, 2): 8.0,
            (0, 3): 8.0,
            (1, 2): 8.0,
            (1, 3): 8.0,
        },
    )
    t = upgma(dm)
    assert [d for _, _, d, _ in t.merges] == [2.0, 3.0, 8.0]
    assert t.merges[2][0] == "AB" and t.merges[2][1] == "CD"


def test_matches_mean_linkage_oracle():
    for seed in range(6):
        dm = rand_dmatrix(5, seed)
        t = upgma(dm)
        heights, partitions = mean_linkage_oracle(dm)
        got = [d for _, _, d, _ in t.merges]
        assert np.allclose(got, heights, atol=1e-12)
        members = {i: frozenset([i]) for i in range(5)}
        for k, (li, ri, _, _) in enumerate(t.links):
            members[5 + k] = members[li] | members[ri]
            assert members[5 + k] == partitions[k]


def test_matches_scipy_average_linkage():
    for seed in range(4):
        dm = rand_dmatrix(6, seed + 50)
        t = upgma(dm)
        z = linkage(squareform(dm.values), method="average")
        assert np.allclose(
            sorted(d for _, _, d, _ in t.merges), sorted(z[:, 2]), atol=1e-10
        )


def test_merge_heights_nondecreasing():
    for seed in range(5):
        t = upgma(rand_dmatrix(7, seed + 100))
        d = [x for _, _, x, _ in t.merges]
        assert all(b >= a for a, b in zip(d, d[1:]))
        assert t.merges[-1][3] == 7


def test_cophenetic_ultrametric():
    dm = rand_dmatrix(6, 9)
    coph = cophenetic_matrix(upgma(dm)).values
    for x, y, z in itertools.permutations(range(6), 3):
        assert coph[x, z] <= max(coph[x, y], coph[y, z]) + 1e-12


@st.composite
def tied_dmatrix(draw):
    """2 to 30 labels, distances drawn from five integers, so ties abound."""
    m = draw(st.integers(2, 30))
    n = m * (m - 1) // 2
    v = np.zeros((m, m))
    v[np.triu_indices(m, 1)] = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return DistanceMatrix(tuple(f"u{i}" for i in range(m)), v + v.T)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tied_dmatrix())
def test_upgma_properties_on_tied_distances(dm):
    t = upgma(dm)
    leaves = re.findall(r"[(,]([^(),:;]+):", to_newick(t))
    assert sorted(leaves) == sorted(dm.labels)
    coph = cophenetic_matrix(t).values
    # d(a, c) <= max(d(a, b), d(b, c)) for every a, b, c
    assert np.all(coph[:, None, :] <= np.maximum(coph[:, :, None], coph[None, :, :]) + 1e-12)


def test_label_permutation_isomorphic():
    dm = rand_dmatrix(5, 31)
    perm = [4, 2, 0, 3, 1]
    shuffled = DistanceMatrix(
        tuple(dm.labels[i] for i in perm), dm.values[np.ix_(perm, perm)]
    )
    t1, t2 = upgma(dm), upgma(shuffled)
    assert np.allclose(
        [d for _, _, d, _ in t1.merges], [d for _, _, d, _ in t2.merges], atol=1e-12
    )
    # same leaf partitions at each merge, independent of input order
    def partitions(t):
        members = {i: frozenset([t.labels[i]]) for i in range(len(t.labels))}
        out = []
        for k, (li, ri, _, _) in enumerate(t.links):
            members[len(t.labels) + k] = members[li] | members[ri]
            out.append(members[len(t.labels) + k])
        return out

    assert partitions(t1) == partitions(t2)


def test_newick_roundtrip_leaves():
    t = upgma(rand_dmatrix(6, 77))
    text = to_newick(t)
    assert text.endswith(";")
    names = {
        piece.split(":")[0].strip("()")
        for piece in text.rstrip(";").replace("(", "").split(",")
    }
    assert names == set(t.labels)


def test_newick_quotes_unsafe_labels():
    labels = ["A(", "B", "c,d", "e f", "it's", "x[1]", ""]
    pairs = {(i, j): float(i + j) for i in range(len(labels)) for j in range(i + 1, len(labels))}
    text = to_newick(upgma(dmatrix(labels, pairs)))
    quoted = re.findall(r"[(,]('(?:[^']|'')*'|[^(),:;'\[\] ]*):", text)
    assert sorted(quoted) == sorted(["'A('", "B", "'c,d'", "'e f'", "'it''s'", "'x[1]'", "''"])


def test_dendrogram_validation():
    with pytest.raises(ValueError):
        Dendrogram(("A", "B"), ())
    with pytest.raises(ValueError):
        Dendrogram(("A", "B", "C"), ((0, 1, 5.0, 2), (3, 2, 1.0, 3)))
    with pytest.raises(ValueError):
        Dendrogram(("A", "B", "C"), ((0, 1, 1.0, 2), (3, 2, 2.0, 2)))
    # to_newick would drop or repeat leaves for the first two
    with pytest.raises(ValueError, match="merge 1 must join two distinct unmerged"):
        Dendrogram(("A", "B", "C"), ((0, 1, 1.0, 2), (0, 2, 2.0, 3)))
    with pytest.raises(ValueError, match="merge 0 must join two distinct unmerged"):
        Dendrogram(("A", "B", "C"), ((0, 0, 1.0, 2), (3, 2, 2.0, 3)))
    with pytest.raises(ValueError, match="merge 0 size"):
        Dendrogram(("A", "B", "C"), ((0, 1, 1.0, 3), (3, 2, 2.0, 3)))

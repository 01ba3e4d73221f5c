"""The vectorized cohort kernels against plain-loop reference versions.

The references below are the per-pair and per-permutation loops the
kernels replaced. Each test asks for exact equality, not closeness:
compare and cluster outputs are meant to stay byte-identical.
"""

import numpy as np
import pytest

from rformant.cluster import upgma
from rformant.isochrony import manhattan
from rformant.lts import AEMS, AMS
from rformant.profiles import RFormantProfile
from rformant.stats import (
    DistanceMatrix,
    distance_matrix,
    mantel,
    pearson_r,
)

# ---- loop references ----


def hamming_distance(a, b) -> int:
    """Count of bins that differ after rounding to 2 decimal places."""
    return int(np.sum(np.round(a, 2) != np.round(b, 2)))


def loop_distance_matrix(profiles, metric):
    fn = manhattan if metric == "manhattan" else hamming_distance
    m = len(profiles)
    values = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            values[i, j] = values[j, i] = float(fn(profiles[i].bins, profiles[j].bins))
    return DistanceMatrix(tuple(p.label for p in profiles), values)


def loop_mantel(a, b, permutations, seed):
    m = len(a.labels)
    order = np.argsort(np.array(a.labels))
    av = a.values[np.ix_(order, order)]
    bv = b.values[np.ix_(order, order)]
    iu = np.triu_indices(m, k=1)
    x = av[iu]
    r_obs = pearson_r(x, bv[iu])
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(m)
        if abs(pearson_r(x, bv[np.ix_(perm, perm)][iu])) >= abs(r_obs):
            hits += 1
    return {"r": r_obs, "p": (1 + hits) / (1 + permutations)}


def loop_upgma(d):
    m = len(d.labels)
    cur = d.values.copy()
    names, sizes, ids = list(d.labels), [1] * m, list(range(m))
    merges, links = [], []
    next_id = m
    while len(names) > 1:
        k = len(names)
        best_i, best_j, best_d = 0, 1, np.inf
        for i in range(k):
            for j in range(i + 1, k):
                if cur[i, j] < best_d:
                    best_i, best_j, best_d = i, j, cur[i, j]
        i, j = best_i, best_j
        size = sizes[i] + sizes[j]
        merges.append((names[i], names[j], float(best_d), size))
        links.append((ids[i], ids[j], float(best_d), size))
        merged_row = (sizes[i] * cur[i, :] + sizes[j] * cur[j, :]) / size
        cur[i, :] = merged_row
        cur[:, i] = merged_row
        cur[i, i] = 0.0
        cur = np.delete(np.delete(cur, j, axis=0), j, axis=1)
        names[i] = names[i] + names[j]
        sizes[i] = size
        ids[i] = next_id
        del names[j], sizes[j], ids[j]
        next_id += 1
    return tuple(merges), tuple(links)


# ---- cohorts ----


def cohort(m, seed, domain=AMS, n_bins=10, repeats=0):
    """m random normalized profiles; the last ``repeats`` copy earlier bins."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(m):
        if i >= m - repeats:
            rows.append(rows[i % (m - repeats)])
            continue
        raw = rng.random(n_bins) * (rng.random(n_bins) < 0.6)
        raw[rng.integers(n_bins)] += 0.1
        rows.append(raw / raw.sum())
    return [
        RFormantProfile(f"u{i:03d}", domain, (), bins, (1.0, 10.0), n_bins)
        for i, bins in enumerate(rows)
    ]


def matrix_pair(m, seed, metric, repeats=0):
    pa = cohort(m, seed, AMS, repeats=repeats)
    pb = cohort(m, seed + 1000, AEMS, repeats=repeats)
    return distance_matrix(pa, metric), distance_matrix(pb, metric)


# ---- distance_matrix ----


@pytest.mark.parametrize("metric", ["manhattan", "hamming"])
@pytest.mark.parametrize("m,n_bins", [(2, 1), (9, 7), (40, 10), (25, 130)])
def test_distance_matrix_equals_per_pair_loop(metric, m, n_bins):
    profs = cohort(m, seed=m + n_bins, n_bins=n_bins, repeats=m // 4)
    fast = distance_matrix(profs, metric)
    ref = loop_distance_matrix(profs, metric)
    assert fast.labels == ref.labels
    assert fast.values.tobytes() == ref.values.tobytes()


# ---- mantel ----


@pytest.mark.parametrize("metric", ["manhattan", "hamming"])
@pytest.mark.parametrize("m", [3, 7, 50])
@pytest.mark.parametrize("seed", [0, 3, 4, 5])
def test_mantel_equals_permutation_loop(metric, m, seed):
    a, b = matrix_pair(m, seed, metric)
    fast = mantel(a, b, permutations=499, seed=seed)
    ref = loop_mantel(a, b, 499, seed)
    assert fast["r"] == ref["r"]
    assert fast["p"] == ref["p"]


@pytest.mark.parametrize("metric", ["manhattan", "hamming"])
@pytest.mark.parametrize("m,repeats", [(3, 1), (7, 3), (50, 20)])
def test_mantel_equals_loop_with_exact_ties(metric, m, repeats):
    # repeated profiles make many permutations reproduce B's triangle
    # exactly, so |r_perm| == |r_obs| ties must be counted the same way
    a, b = matrix_pair(m, 11, metric, repeats=repeats)
    for seed in (3, 4):
        fast = mantel(a, b, permutations=999, seed=seed)
        ref = loop_mantel(a, b, 999, seed)
        assert (fast["r"], fast["p"]) == (ref["r"], ref["p"])


def test_mantel_self_ties_on_identity_permutations():
    # A = B: r_obs is clipped to exactly 1, and only the permutations that
    # reproduce the triangle reach it
    a, _ = matrix_pair(3, 5, "manhattan")
    fast = mantel(a, a, permutations=999, seed=8)
    assert fast == loop_mantel(a, a, 999, 8)
    assert fast["r"] == 1.0


# ---- upgma ----


def assert_same_tree(d):
    merges, links = loop_upgma(d)
    t = upgma(d)
    assert t.merges == merges
    assert t.links == links


@pytest.mark.parametrize("m,seed", [(2, 0), (3, 1), (8, 2), (30, 3), (64, 4)])
def test_upgma_equals_loop_on_random_matrices(m, seed):
    rng = np.random.default_rng(seed)
    v = np.zeros((m, m))
    iu = np.triu_indices(m, 1)
    v[iu] = rng.uniform(0.0, 5.0, iu[0].size)
    assert_same_tree(DistanceMatrix(tuple(f"n{i}" for i in range(m)), v + v.T))


@pytest.mark.parametrize("m", [2, 5, 12])
def test_upgma_equals_loop_on_all_equal_matrix(m):
    v = np.full((m, m), 2.0)
    np.fill_diagonal(v, 0.0)
    assert_same_tree(DistanceMatrix(tuple(f"n{i:02d}" for i in range(m)), v))


@pytest.mark.parametrize("m,seed", [(6, 0), (20, 1), (60, 2)])
def test_upgma_equals_loop_on_hamming_matrices(m, seed):
    # few distinct integer distances: ties on the minimum at every level
    d = distance_matrix(cohort(m, seed, repeats=m // 5), "hamming")
    assert_same_tree(d)

"""Correlation and distance machinery for rhythm profiles.

Pearson's r over histogram bins, pairwise distance matrices across
utterances, a seeded Mantel permutation test between two such matrices,
and small summary helpers. Everything here is deterministic given the
seed; the Mantel permutation stream never depends on wall clock or hash
randomization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise distances between labeled utterances."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        m = len(self.labels)
        v = self.values
        if m < 2:
            raise ValueError("need at least two labels")
        if len(set(self.labels)) != m:
            raise ValueError("labels must be unique")
        if v.shape != (m, m):
            raise ValueError(f"values must be {m}x{m}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("distances must be finite")
        if np.any(v < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.diagonal(v) != 0):
            raise ValueError("diagonal must be zero")
        if np.max(np.abs(v - v.T)) > 1e-9:
            raise ValueError("matrix must be symmetric")


def pearson_r(x, y) -> float:
    """Product-moment correlation of two equal-length vectors.

    Identical vectors give exactly 1.0 (the numerator and denominator
    reduce to the same dot product).
    """
    vx = np.asarray(x, dtype=np.float64)
    vy = np.asarray(y, dtype=np.float64)
    if vx.shape != vy.shape or vx.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D vectors")
    if vx.size < 2:
        raise ValueError("need at least two samples")
    dx = vx - vx.mean()
    dy = vy - vy.mean()
    sx2 = float(np.dot(dx, dx))
    sy2 = float(np.dot(dy, dy))
    if sx2 == 0.0 or sy2 == 0.0:
        raise ValueError("correlation undefined for a zero-variance input")
    r = float(np.dot(dx, dy)) / np.sqrt(sx2 * sy2)
    return min(1.0, max(-1.0, r))


_METRICS = ("hamming", "manhattan")


def distance_matrix(profiles, metric: str = "manhattan") -> DistanceMatrix:
    """Pairwise distances between the bin vectors of same-domain profiles."""
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(_METRICS)}")
    if len(profiles) < 2:
        raise ValueError("need at least two profiles")
    domains = {p.domain for p in profiles}
    if len(domains) != 1:
        raise ValueError(f"profiles mix domains {sorted(domains)}")
    sizes = {p.n_bins for p in profiles}
    if len(sizes) != 1:
        raise ValueError(f"profiles mix bin counts {sorted(sizes)}")
    x = np.stack([p.bins for p in profiles])
    if metric == "manhattan":
        values = np.abs(x[:, None] - x[None]).sum(2)
    else:
        q = np.round(x, 2)
        values = (q[:, None] != q[None]).sum(2).astype(np.float64)
    return DistanceMatrix(tuple(p.label for p in profiles), values)


def mantel(a: DistanceMatrix, b: DistanceMatrix, permutations: int = 9999, seed: int = 0) -> dict:
    """Mantel (1967) permutation test between two distance matrices.

    r correlates the strict upper triangles; the null distribution comes
    from jointly permuting B's rows and columns. Two-tailed p with the +1
    correction, so p is never exactly 0. Matrices are first put into a
    canonical label order, which makes the result bit-identical under any
    consistent relabeling of both inputs.

    A joint permutation leaves the mean and spread of B's triangle, and so
    the denominator of r, unchanged; as A's centered triangle xc sums to
    0, |r_perm| >= |r_obs| is decided by |sum_{i<j} xc_ij b[p_i, p_j]|.
    Permutations are scored by that sum, and by |r| itself only where it
    is within rounding of the observed score (ties, common with hamming).
    """
    if a.labels != b.labels:
        raise ValueError("matrices must carry the same labels in the same order")
    m = len(a.labels)
    if m < 3:
        raise ValueError("Mantel test needs at least 3 items")
    if permutations < 99:
        raise ValueError(f"too few permutations ({permutations}) for a p-value")
    order = np.argsort(np.array(a.labels))
    av = a.values[np.ix_(order, order)]
    bv = b.values[np.ix_(order, order)]
    iu = np.triu_indices(m, k=1)
    x = av[iu]
    r_obs = pearson_r(x, bv[iu])
    xc_upper = np.zeros((m, m))
    xc_upper[iu] = x - x.mean()
    s_obs = abs(np.vdot(xc_upper, bv))
    # generous bound on the rounding in either score and in r: n eps sum|x| max|b|
    tol = 32 * x.size * np.finfo(float).eps * x.sum() * bv.max()

    def at_least_observed(p):
        bp = bv.take(p, 0).take(p, 1)
        s = abs(np.vdot(xc_upper, bp))
        if abs(s - s_obs) > tol:
            return s > s_obs
        return abs(pearson_r(x, bp[iu])) >= abs(r_obs)

    rng = np.random.default_rng(seed)
    hits = int(sum(at_least_observed(rng.permutation(m)) for _ in range(permutations)))
    return {"r": r_obs, "p": (1 + hits) / (1 + permutations)}


def significance_code(p: float) -> str:
    """Conventional star notation: ** at 0.01, * at 0.05, ns above."""
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    return "ns"


def correlation_summary(per_utterance_r: dict) -> dict:
    """Mean, minimum, and maximum of labeled correlation values.

    Ties on the extremes resolve to the lexicographically smallest label.
    """
    if not per_utterance_r:
        raise ValueError("no correlations to summarize")
    items = sorted(per_utterance_r.items())
    # min and max keep the first of equal values: the smallest label
    min_label, min_r = min(items, key=lambda item: item[1])
    max_label, max_r = max(items, key=lambda item: item[1])
    return {
        "mean_r": sum(r for _, r in items) / len(items),
        "min_label": min_label,
        "min_r": min_r,
        "max_label": max_label,
        "max_r": max_r,
    }

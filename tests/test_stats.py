import numpy as np
import pytest

from rformant.lts import AEMS, AMS
from rformant.profiles import RFormantProfile
from rformant.stats import (
    DistanceMatrix,
    correlation_summary,
    distance_matrix,
    mantel,
    pearson_r,
    significance_code,
)


def make_profile(label, bins, domain=AMS):
    bins = np.asarray(bins, dtype=np.float64)
    return RFormantProfile(label, domain, (), bins, (1.0, 10.0), bins.size)


# ---- pearson_r ----


def test_pearson_exact_linear():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson_r([1, 2, 3], [3, 2, 1]) == -1.0


def test_pearson_hand_value():
    assert pearson_r([1, 2, 3], [1, 3, 2]) == 0.5


def test_pearson_identical_is_exactly_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.random(rng.integers(2, 20))
        if np.ptp(x) == 0:
            continue
        assert pearson_r(x, x) == 1.0


def test_pearson_bounds_and_symmetry():
    rng = np.random.default_rng(2)
    x, y = rng.random(30), rng.random(30)
    r = pearson_r(x, y)
    assert -1.0 <= r <= 1.0
    assert pearson_r(y, x) == r


def test_pearson_affine_invariance():
    rng = np.random.default_rng(3)
    x, y = rng.random(25), rng.random(25)
    assert abs(pearson_r(2.5 * x + 1.7, y) - pearson_r(x, y)) < 1e-9


def test_pearson_rejects_degenerate():
    with pytest.raises(ValueError):
        pearson_r([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson_r([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson_r([1.0], [2.0])


# ---- hamming ----


def hamming(a, b) -> float:
    """The hamming distance_matrix entry between two profiles' bins."""
    return distance_matrix([make_profile("a", a), make_profile("b", b)], "hamming").values[0, 1]


def test_hamming_basic():
    assert hamming([1, 0, 0], [1, 0, 0]) == 0
    assert hamming([1, 0, 0], [0, 1, 0]) == 2
    with pytest.raises(ValueError):
        distance_matrix([make_profile("a", [1, 0]), make_profile("b", [1, 0, 0])], "hamming")


def test_hamming_quantizes_to_two_decimals():
    assert hamming([0.851, 0.149], [0.854, 0.146]) == 0
    assert hamming([0.851, 0.149], [0.86, 0.14]) == 2


# ---- distance_matrix ----


def test_distance_matrix_identical_profiles():
    p = make_profile("a", [0.5, 0.5, 0.0])
    q = make_profile("b", [0.5, 0.5, 0.0])
    dm = distance_matrix([p, q], "manhattan")
    assert dm.labels == ("a", "b")
    assert dm.values[0, 1] == 0.0


def test_distance_matrix_disjoint_masses():
    p = make_profile("a", [1.0, 0.0, 0.0])
    q = make_profile("b", [0.0, 1.0, 0.0])
    assert distance_matrix([p, q]).values[0, 1] == 2.0


def test_distance_matrix_matches_brute_force():
    bins = [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.0, 0.9, 0.1]]
    profs = [make_profile(f"u{i}", b) for i, b in enumerate(bins)]
    dm = distance_matrix(profs, "manhattan")
    for i in range(3):
        for j in range(3):
            expect = sum(abs(x - y) for x, y in zip(bins[i], bins[j]))
            assert dm.values[i, j] == pytest.approx(expect, abs=1e-12)


def test_distance_matrix_hamming_metric():
    p = make_profile("a", [0.7, 0.3, 0.0])
    q = make_profile("b", [0.7, 0.0, 0.3])
    dm = distance_matrix([p, q], "hamming")
    assert dm.values[0, 1] == 2.0


def test_distance_matrix_rejects_mixed_inputs():
    p = make_profile("a", [1.0, 0.0])
    q = make_profile("b", [1.0, 0.0], domain=AEMS)
    with pytest.raises(ValueError):
        distance_matrix([p, q])
    r = make_profile("c", [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        distance_matrix([p, r])
    with pytest.raises(ValueError):
        distance_matrix([p])
    with pytest.raises(ValueError):
        distance_matrix([p, make_profile("b", [1.0, 0.0])], "euclid")


def test_distance_matrix_triangle_inequality():
    rng = np.random.default_rng(5)
    profs = []
    for i in range(6):
        raw = rng.random(10)
        profs.append(make_profile(f"u{i}", raw / raw.sum()))
    v = distance_matrix(profs).values
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert v[i, j] <= v[i, k] + v[k, j] + 1e-12


# ---- DistanceMatrix validation ----


def test_distance_matrix_invariants():
    with pytest.raises(ValueError):
        DistanceMatrix(("a",), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), -np.ones((2, 2)))
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distance_matrix_rejects_non_finite_values(bad):
    # NaN slips past the sign, diagonal and symmetry checks
    v = np.array([[0.0, 1.0, bad], [1.0, 0.0, 2.0], [bad, 2.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        DistanceMatrix(("a", "b", "c"), v)


# ---- mantel ----


def rand_dmatrix(labels, seed):
    rng = np.random.default_rng(seed)
    m = len(labels)
    v = np.zeros((m, m))
    iu = np.triu_indices(m, 1)
    v[iu] = rng.random(iu[0].size)
    return DistanceMatrix(tuple(labels), v + v.T)


def test_mantel_self_is_perfect():
    a = rand_dmatrix(["u1", "u2", "u3", "u4"], seed=7)
    out = mantel(a, a, permutations=999, seed=0)
    assert out["r"] == 1.0
    assert out["p"] <= 0.05


def test_mantel_is_deterministic():
    a = rand_dmatrix(["u1", "u2", "u3", "u4", "u5"], seed=1)
    b = rand_dmatrix(["u1", "u2", "u3", "u4", "u5"], seed=2)
    o1 = mantel(a, b, permutations=499, seed=42)
    o2 = mantel(a, b, permutations=499, seed=42)
    assert o1["r"] == o2["r"] and o1["p"] == o2["p"]


def test_mantel_relabel_invariant():
    labels = ["u1", "u2", "u3", "u4", "u5"]
    a = rand_dmatrix(labels, seed=1)
    b = rand_dmatrix(labels, seed=2)
    base = mantel(a, b, permutations=499, seed=3)
    # present the same data with rows shuffled identically in both matrices
    perm = [3, 0, 4, 1, 2]
    sh = lambda dm: DistanceMatrix(
        tuple(dm.labels[i] for i in perm), dm.values[np.ix_(perm, perm)]
    )
    out = mantel(sh(a), sh(b), permutations=499, seed=3)
    assert out["r"] == base["r"]
    assert out["p"] == base["p"]


def test_mantel_rejects_bad_inputs():
    a = rand_dmatrix(["u1", "u2", "u3"], seed=1)
    b = rand_dmatrix(["u1", "u2", "x3"], seed=2)
    with pytest.raises(ValueError):
        mantel(a, b, permutations=999)
    small_a = rand_dmatrix(["u1", "u2"], seed=3)
    small_b = rand_dmatrix(["u1", "u2"], seed=4)
    with pytest.raises(ValueError):
        mantel(small_a, small_b, permutations=999)
    with pytest.raises(ValueError):
        mantel(a, rand_dmatrix(["u1", "u2", "u3"], seed=5), permutations=50)


# ---- summaries ----


def test_significance_codes():
    assert significance_code(0.005) == "**"
    assert significance_code(0.01) == "**"
    assert significance_code(0.03) == "*"
    assert significance_code(0.05) == "*"
    assert significance_code(0.1) == "ns"


def test_correlation_summary():
    out = correlation_summary({"u1": 0.1, "u2": 0.2, "u3": 0.3})
    assert out["mean_r"] == pytest.approx(0.2)
    assert (out["min_label"], out["min_r"]) == ("u1", 0.1)
    assert (out["max_label"], out["max_r"]) == ("u3", 0.3)


def test_correlation_summary_single_and_empty():
    out = correlation_summary({"u9": 0.42})
    assert out["mean_r"] == out["min_r"] == out["max_r"] == 0.42
    assert out["min_label"] == out["max_label"] == "u9"
    with pytest.raises(ValueError):
        correlation_summary({})


def test_correlation_summary_tie_breaks_by_label():
    out = correlation_summary({"b": 0.5, "a": 0.5, "c": 0.5})
    assert out["min_label"] == "a"
    assert out["max_label"] == "a"

import numpy as np
import pytest

from rformant.isochrony import (
    AnnotationTier,
    canberra,
    manhattan,
    npvi,
    predict_formant_range,
    rates_from_annotation,
    read_annotation_csv,
    rpvi,
    shifted_subvectors,
    wagner_pairs,
)


# ---- shifted subvectors ----


def test_shifted_subvectors():
    da, db = shifted_subvectors([2, 4, 2, 4, 2, 4])
    assert np.array_equal(da, [2, 4, 2, 4, 2])
    assert np.array_equal(db, [4, 2, 4, 2, 4])
    da, db = shifted_subvectors([1, 3])
    assert np.array_equal(da, [1]) and np.array_equal(db, [3])
    with pytest.raises(ValueError):
        shifted_subvectors([5])


def test_shifted_subvector_lengths():
    d = np.arange(1, 12, dtype=np.float64)
    da, db = shifted_subvectors(d)
    assert da.size == db.size == d.size - 1


# ---- rPVI / nPVI ----


def test_rpvi_alternating():
    assert rpvi([2, 4, 2, 4, 2, 4]) == 200.0


def test_rpvi_linear_ramp_same_value():
    # a steadily lengthening sequence scores the same as strict alternation
    assert rpvi([2, 4, 6, 8, 10, 12]) == 200.0


def test_rpvi_constant_and_small():
    assert rpvi([5, 5, 5, 5]) == 0.0
    assert rpvi([1, 3, 2]) == 150.0


def test_npvi_alternating():
    assert abs(npvi([2, 4, 2, 4, 2, 4]) - 66.67) <= 0.01


def test_npvi_geometric_same_value():
    # doubling sequence is maximally non-isochronous yet scores like 2,4,2,4
    assert abs(npvi([2, 4, 8, 16, 32, 64]) - 66.67) <= 0.01


def test_npvi_constant_and_pair():
    assert npvi([7, 7, 7]) == 0.0
    assert npvi([1, 3]) == 100.0


def test_npvi_requires_positive():
    with pytest.raises(ValueError):
        npvi([1.0, 0.0, 2.0])


def test_pvi_scale_laws():
    rng = np.random.default_rng(4)
    d = rng.uniform(0.05, 0.6, 20)
    c = 3.7
    assert rpvi(c * d) == pytest.approx(c * rpvi(d), rel=1e-12)
    assert npvi(c * d) == pytest.approx(npvi(d), rel=1e-12)


def test_npvi_bounded_below_200():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = rng.integers(2, 30)
        d = rng.uniform(1e-3, 10.0, n)
        value = npvi(d)
        assert 0.0 <= value < 200.0


# ---- distances ----


def test_manhattan_values():
    assert manhattan([2, 4, 2, 4, 2], [4, 2, 4, 2, 4]) == 10.0
    assert manhattan([1.5, 2.5], [1.5, 2.5]) == 0.0
    assert manhattan([0.0], [3.0]) == 3.0
    with pytest.raises(ValueError):
        manhattan([1, 2], [1, 2, 3])


def test_canberra_values():
    assert canberra([2, 4, 2, 4, 2], [4, 2, 4, 2, 4]) == pytest.approx(5 / 3, abs=1e-9)
    assert canberra([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert canberra([1.0], [3.0]) == 0.5
    with pytest.raises(ValueError):
        canberra([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        canberra([0.0, 1.0], [0.0, 1.0])


def test_rpvi_is_scaled_manhattan_exactly():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = rng.integers(2, 40)
        d = rng.uniform(1e-3, 5.0, n)
        da, db = shifted_subvectors(d)
        assert rpvi(d) == 100.0 * manhattan(da, db) / (n - 1)


def test_npvi_is_scaled_canberra_exactly():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = rng.integers(2, 40)
        d = rng.uniform(1e-3, 5.0, n)
        da, db = shifted_subvectors(d)
        assert npvi(d) == 200.0 * canberra(da, db) / (n - 1)


# ---- annotation rates ----


def make_tier(durations, labels=None, gap=0.0):
    t = 0.0
    intervals = []
    for i, dur in enumerate(durations):
        label = labels[i] if labels else f"w{i}"
        intervals.append((t, t + dur, label))
        t += dur + gap
    return AnnotationTier(tuple(intervals))


def test_rates_thirty_words():
    tier = make_tier(np.full(30, 9.667 / 30))
    r = rates_from_annotation(tier)
    assert r["count"] == 30
    assert r["total_s"] == pytest.approx(9.667, abs=1e-9)
    assert abs(r["mean_s"] - 0.322) < 0.0005
    assert abs(r["rate_hz"] - 3.10) < 0.01


def test_rates_simple():
    assert rates_from_annotation(make_tier([1.0]))["rate_hz"] == 1.0
    assert rates_from_annotation(make_tier([0.25] * 10))["rate_hz"] == pytest.approx(4.0)


def test_rates_empty_tier():
    with pytest.raises(ValueError):
        rates_from_annotation(AnnotationTier(()))


def test_rates_leave_out_pauses():
    speech = make_tier([0.3, 0.5, 0.2], gap=0.4)
    pauses = [(e, e + 0.4, label) for (_, e, _), label in zip(speech.intervals, ["-", ""])]
    with_pauses = AnnotationTier(tuple(sorted(speech.intervals + tuple(pauses))))
    assert len(with_pauses.intervals) == 5
    assert rates_from_annotation(with_pauses) == rates_from_annotation(speech)
    with pytest.raises(ValueError, match="speech"):
        rates_from_annotation(make_tier([0.2, 0.3], labels=["-", ""]))


# ---- formant range prediction ----


def test_predict_range_paper_rates():
    lo, hi, center = predict_formant_range(3.1, 6.21)
    assert (lo, hi) == (3.1, 6.21)
    assert center == (3.1 + 6.21) / 2.0
    assert abs(center - 4.66) < 0.01


def test_predict_range_swap_and_degenerate():
    assert predict_formant_range(6.0, 2.0) == (2.0, 6.0, 4.0)
    assert predict_formant_range(4.0, 4.0) == (4.0, 4.0, 4.0)
    with pytest.raises(ValueError):
        predict_formant_range(0.0, 5.0)


# ---- Wagner scatter ----


def test_wagner_alternating():
    out = wagner_pairs([2, 4, 2, 4])
    assert out["pairs"] == ((-1.0, 1.0), (1.0, -1.0), (-1.0, 1.0))
    assert out["quadrant_counts"] == (0, 2, 1, 0)


def test_wagner_constant_rejected():
    with pytest.raises(ValueError):
        wagner_pairs([3, 3, 3, 3])


def test_wagner_monotone_never_plus_minus():
    rng = np.random.default_rng(6)
    d = np.cumsum(rng.uniform(0.1, 1.0, 25))
    counts = wagner_pairs(d)["quadrant_counts"]
    assert counts[2] == 0  # (+,-) impossible for increasing durations


def test_wagner_zero_counts_nonnegative():
    out = wagner_pairs([1.0, 2.0, 3.0])
    # middle z-score is exactly 0; it lands on the + side both times
    assert out["quadrant_counts"] == (0, 1, 0, 1)


# ---- tier and vector validation, CSV input ----


def test_tier_validation():
    with pytest.raises(ValueError):
        AnnotationTier(((0.0, 0.0, "x"),))
    with pytest.raises(ValueError):
        AnnotationTier(((0.0, 1.0, "a"), (0.5, 1.5, "b")))
    with pytest.raises(ValueError):
        AnnotationTier(((1.0, 2.0, "a"), (0.0, 3.0, "b")))
    # back-to-back within tolerance is fine
    AnnotationTier(((0.0, 1.0, "a"), (1.0 - 1e-7, 2.0, "b")))


def test_tier_durations_exclude_pauses():
    tier = AnnotationTier(
        ((0.0, 0.3, "one"), (0.3, 0.5, "-"), (0.5, 1.0, "two"), (1.0, 1.2, "")),
    )
    assert np.allclose(tier.durations(), [0.3, 0.5])


def test_read_annotation_csv(tmp_path):
    p = tmp_path / "words.csv"
    p.write_text(
        "start_s,end_s,label\n"
        "# a comment\n"
        "0.0,0.30,one\n"
        "0.30,0.55,-\n"
        "\n"
        "0.55,0.90,two\n",
        encoding="utf-8",
    )
    tier = read_annotation_csv(p)
    assert len(tier.intervals) == 3
    assert tier.intervals[0] == (0.0, 0.30, "one")
    assert np.allclose(tier.durations(), [0.30, 0.35])


def test_read_annotation_csv_bad_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.0,0.3,ok\nnot,numeric,row\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_annotation_csv(p)
    p2 = tmp_path / "short.csv"
    p2.write_text("0.5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_annotation_csv(p2)
    # a typo in the first data row is an error, not a second header
    p3 = tmp_path / "typo.csv"
    p3.write_text("start,end,label\n0.1x,0.3,ba\n0.3,0.5,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"typo\.csv:2: non-numeric interval bounds"):
        read_annotation_csv(p3)


def test_read_annotation_csv_header_after_comment_and_blank(tmp_path):
    p = tmp_path / "commented.csv"
    p.write_text("# words of one take\n\nstart,end,label\n0.1,0.3,ba\n0.3,0.5,b\n",
                 encoding="utf-8")
    tier = read_annotation_csv(p)
    assert tier.intervals == ((0.1, 0.3, "ba"), (0.3, 0.5, "b"))

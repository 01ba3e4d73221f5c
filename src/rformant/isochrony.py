"""Duration-based rhythm metrics over time-stamped annotations.

The pairwise variability indices (raw and normalized), their exact
restatement as Manhattan and Canberra distances between shifted
subvectors, z-scored duration scatter data, annotation-derived speech
rates, and the rate-based prediction of where rhythm formants should sit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# interval labels treated as pauses rather than speech units
PAUSE_LABELS = ("", "-", "--")

_OVERLAP_TOL = 1e-6


@dataclass(frozen=True)
class AnnotationTier:
    """Non-overlapping labeled time intervals, ascending by start."""

    intervals: tuple[tuple[float, float, str], ...]
    tier_name: str = ""

    def __post_init__(self):
        object.__setattr__(
            self,
            "intervals",
            tuple((float(s), float(e), str(l)) for s, e, l in self.intervals),
        )
        prev_end = None
        prev_start = None
        for start, end, _ in self.intervals:
            if end <= start:
                raise ValueError(f"interval ({start}, {end}) has nonpositive duration")
            if prev_start is not None and start < prev_start:
                raise ValueError("interval starts must be nondecreasing")
            if prev_end is not None and start < prev_end - _OVERLAP_TOL:
                raise ValueError(f"interval starting at {start} overlaps the previous one")
            prev_start, prev_end = start, end

    def durations(self) -> np.ndarray:
        """Durations of the speech intervals; pauses (PAUSE_LABELS) are left out."""
        return np.array([e - s for s, e, l in self.intervals if l not in PAUSE_LABELS])


def read_annotation_csv(path, tier_name: str = "") -> AnnotationTier:
    """Read a 3-column annotation file: start_s, end_s, label.

    UTF-8, comma-separated, `#` comment lines and blank lines skipped, a
    single header row tolerated.
    """
    path = Path(path)
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected start,end[,label]")
            try:
                start, end = float(row[0]), float(row[1])
            except ValueError:
                if not rows and lineno <= 2:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: non-numeric interval bounds")
            if not end > start:
                raise ValueError(
                    f"{path}:{lineno}: interval ({start}, {end}) has nonpositive duration"
                )
            label = row[2].strip() if len(row) > 2 else ""
            rows.append((start, end, label))
    return AnnotationTier(tuple(rows), tier_name or path.stem)


def _values(d, min_len: int = 2, positive: bool = False) -> np.ndarray:
    v = np.asarray(d, dtype=np.float64)
    if v.ndim != 1 or v.size < min_len:
        raise ValueError(f"need a 1-D vector of at least {min_len} values")
    if positive and np.any(v <= 0):
        raise ValueError("values must be positive")
    return v


def shifted_subvectors(d) -> tuple[np.ndarray, np.ndarray]:
    """Split (d_1..d_n) into the overlapping (d_1..d_{n-1}), (d_2..d_n)."""
    v = _values(d)
    return v[:-1], v[1:]


def rpvi(d) -> float:
    """Raw pairwise variability index: 100 * mean |successive difference|.

    Open-ended linear scale; doubles when the durations double.
    """
    v = _values(d)
    return float(100.0 * np.sum(np.abs(np.diff(v))) / (v.size - 1))


def npvi(d) -> float:
    """Normalized PVI: successive differences scaled by their pair means.

    Dimensionless, invariant under unit changes, bounded below 200.
    """
    v = _values(d, positive=True)
    terms = np.abs(np.diff(v)) / ((v[:-1] + v[1:]) / 2.0)
    return float(100.0 * np.sum(terms) / (v.size - 1))


def manhattan(a, b) -> float:
    """Sum of absolute coordinate differences."""
    va, vb = _values(a, min_len=1), _values(b, min_len=1)
    if va.size != vb.size:
        raise ValueError(f"length mismatch: {va.size} vs {vb.size}")
    return float(np.sum(np.abs(va - vb)))


def canberra(a, b) -> float:
    """Manhattan distance with per-coordinate normalization by |a|+|b|."""
    va, vb = _values(a, min_len=1), _values(b, min_len=1)
    if va.size != vb.size:
        raise ValueError(f"length mismatch: {va.size} vs {vb.size}")
    denom = np.abs(va) + np.abs(vb)
    if np.any(denom == 0):
        raise ValueError("canberra undefined for a coordinate pair summing to 0")
    return float(np.sum(np.abs(va - vb) / denom))


def rates_from_annotation(tier: AnnotationTier) -> dict:
    """Count, total and mean duration, and rate in Hz of a tier's speech intervals."""
    durs = tier.durations()
    if not durs.size:
        raise ValueError("tier has no speech intervals")
    total = float(durs.sum())
    return {
        "count": int(durs.size),
        "total_s": total,
        "mean_s": total / durs.size,
        "rate_hz": durs.size / total,
    }


def predict_formant_range(word_rate: float, syllable_rate: float) -> tuple[float, float, float]:
    """Expected rhythm-formant zone from two annotation rates.

    The slower rate bounds the zone below, the faster above; the center is
    their midpoint.
    """
    if word_rate <= 0 or syllable_rate <= 0:
        raise ValueError("rates must be positive")
    lo, hi = sorted((float(word_rate), float(syllable_rate)))
    return lo, hi, (lo + hi) / 2.0


def wagner_pairs(d, ddof: int = 0) -> dict:
    """Z-scored successive-duration pairs and their quadrant tallies.

    Each duration is z-scored over the full vector (population standard
    deviation by default; ``ddof=1`` for the sample convention), then
    consecutive pairs (z_k, z_{k+1}) are tallied by sign into the four
    quadrants (-,-), (-,+), (+,-), (+,+). A zero z-score counts as
    nonnegative.
    """
    v = _values(d, min_len=3)
    sd = float(np.std(v, ddof=ddof))
    if sd == 0:
        raise ValueError("constant durations have no z-scores")
    z = (v - v.mean()) / sd
    za, zb = z[:-1], z[1:]
    neg_a, neg_b = za < 0, zb < 0
    counts = (
        int(np.sum(neg_a & neg_b)),
        int(np.sum(neg_a & ~neg_b)),
        int(np.sum(~neg_a & neg_b)),
        int(np.sum(~neg_a & ~neg_b)),
    )
    return {
        "pairs": tuple(zip(za.tolist(), zb.tolist())),
        "quadrant_counts": counts,
    }

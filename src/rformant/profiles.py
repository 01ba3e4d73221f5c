"""R-formant extraction from a detrended low-frequency spectrum.

An R-formant is a high-magnitude zone of the rhythm spectrum. Two reduced
descriptions are produced per spectrum: the top-n dominant frequencies
(rank selection over the detrended residuals) and a magnitude-weighted
histogram over the band, normalized to a probability vector so profiles
are comparable across utterances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lts import DOMAINS, LongTermSpectrum


@dataclass(frozen=True)
class RFormantProfile:
    """Per-utterance, per-domain rhythm description."""

    label: str
    domain: str
    peaks: tuple[tuple[float, float], ...]
    bins: np.ndarray
    band: tuple[float, float]
    n_bins: int

    def __post_init__(self):
        object.__setattr__(self, "bins", np.asarray(self.bins, dtype=np.float64))
        values = (np.ravel(self.bins), np.ravel(self.peaks), np.ravel(self.band))
        if not np.all(np.isfinite(np.concatenate(values))):
            raise ValueError("bins, peaks and band must be finite")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        lo, hi = self.band
        if not lo < hi:
            raise ValueError(f"band must satisfy lo < hi, got {self.band}")
        if self.bins.ndim != 1 or self.bins.size != self.n_bins:
            raise ValueError("bins length must equal n_bins")
        if np.any(self.bins < 0):
            raise ValueError("bins must be nonnegative")
        total = float(self.bins.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"bins must sum to 1, got {total}")
        prev = None
        for f, w in self.peaks:
            if not lo <= f <= hi:
                raise ValueError(f"peak at {f} Hz outside band {self.band}")
            if prev is not None:
                pw, pf = prev
                if w > pw or (w == pw and f <= pf):
                    raise ValueError("peaks must be weight-descending, ties by frequency")
            prev = (w, f)


def top_n_frequencies(spec: LongTermSpectrum, n: int) -> tuple[tuple[float, float], ...]:
    """The n band frequencies with the largest detrended residuals.

    Plain rank selection over samples; adjacent samples of one broad peak
    can all be selected. Weights are residuals shifted so the band minimum
    is 0. Returned sorted by weight descending, ties by ascending
    frequency.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    r = spec.residual
    f = spec.freqs
    weights = r - r.min()
    if n > f.size:
        raise ValueError(f"asked for {n} peaks but only {f.size} candidates")
    order = np.lexsort((f, -weights))[:n]
    return tuple((float(f[i]), float(weights[i])) for i in order)


def rhythm_bars(spec: LongTermSpectrum, n_bars: int = 16) -> list[float]:
    """Frequencies of the n_bars strongest residual samples, ascending; a
    short clip's spectrum with fewer band samples gives one bar per sample."""
    return sorted(f for f, _ in top_n_frequencies(spec, min(n_bars, spec.freqs.size)))


def weighted_bins(
    peaks, band: tuple[float, float], n_bins: int = 10
) -> np.ndarray:
    """Histogram of peak weights over equal-width bins spanning the band.

    A peak on an edge between two bins counts into the upper one, also when
    rounding puts it up to 1e-9 of a bin width below that edge, as it does
    for rfftfreq grid points; a peak on the top edge counts into the last
    bin. The result is normalized to sum 1.0, so the peaks must carry some
    weight.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy lo < hi, got {band}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be at least 1, got {n_bins}")
    bins = np.zeros(n_bins)
    width = (hi - lo) / n_bins
    for f, w in peaks:
        if not lo <= f <= hi:
            raise ValueError(f"peak at {f} Hz outside band {band}")
        idx = min(math.floor((f - lo) / width + 1e-9), n_bins - 1)
        bins[idx] += w
    total = bins.sum()
    if total <= 0:
        raise ValueError("peaks carry no weight to normalize")
    return bins / total


"""Long-term spectra of modulation-domain series.

One full-length Fourier transform per series, no windowing and no
segmentation. The useful rhythm structure lives in the first few Hz, so a
whole-utterance transform is what gives enough frequency resolution there
(a 5 s clip yields 0.2 Hz bins). A spectrum is born in the analysis band:
only the in-band lines are kept, log-scaled and detrended with a
least-squares line, leaving residuals on a near-flat baseline for peak
picking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import SignalBuffer
from .demodulation import ENVELOPE, F0_CONTINUOUS, Track

AMS = "AMS"
AEMS = "AEMS"
FEMS = "FEMS"

DOMAINS = (AMS, AEMS, FEMS)

LOG_FLOOR = 1e-12
MIN_SERIES_S = 1.0  # shortest series with a spectrum to analyze
SHORT_SERIES_S = 3.0  # shorter series give coarse low-frequency resolution


@dataclass(frozen=True)
class LongTermSpectrum:
    """In-band linear magnitude and its detrended log of one domain of one utterance."""

    domain: str
    freqs: np.ndarray
    magnitude: np.ndarray
    residual: np.ndarray
    band: tuple[float, float]
    label: str = ""

    def __post_init__(self):
        for name in ("freqs", "magnitude", "residual"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        f, m, r = self.freqs, self.magnitude, self.residual
        if f.ndim != 1 or f.size == 0 or not f.shape == m.shape == r.shape:
            raise ValueError("freqs, magnitude and residual must be equal-length 1-D arrays")
        if f[0] < self.band[0] or f[-1] > self.band[1]:
            raise ValueError(f"freqs must lie in band {self.band}")
        if np.any(m < 0):
            raise ValueError("magnitudes must be nonnegative")
        if f.size > 1:
            df = np.diff(f)
            if np.any(df <= 0):
                raise ValueError("freqs must be strictly ascending")
            step = df[0]
            if np.any(np.abs(df - step) > 1e-9 * step):
                raise ValueError("frequency spacing must be uniform")
        if f.size >= 3:
            a, b = np.polyfit(f, r, 1)
            if abs(a) > 1e-6 or abs(b) > 1e-6:
                raise ValueError("residual is not detrended (nonzero line fit)")

    @property
    def delta_f(self) -> float:
        return float(self.freqs[1] - self.freqs[0]) if self.freqs.size > 1 else 0.0


def _series_values(series, domain: str) -> tuple[np.ndarray, float]:
    """Check the series matches the domain and pull out values and rate."""
    if domain == AMS:
        if not isinstance(series, SignalBuffer):
            raise TypeError("AMS expects a rectified SignalBuffer")
        if np.any(series.samples < 0):
            raise ValueError("AMS input must be rectified (nonnegative)")
        return series.samples, series.rate
    if not isinstance(series, Track):
        raise TypeError(f"{domain} expects a Track")
    want = ENVELOPE if domain == AEMS else F0_CONTINUOUS
    if series.kind != want:
        raise ValueError(f"{domain} expects a {want} track, got {series.kind!r}")
    return series.values, series.rate


def long_term_spectrum(series, domain: str, band) -> tuple[np.ndarray, np.ndarray]:
    """Whole-series spectrum of a modulation-domain series over a band.

    The series mean is removed first (the 0 Hz line carries no rhythm),
    then a single real FFT of the entire series gives magnitudes at
    multiples of 1/duration. Returns (freqs, magnitude) of the lines from
    lo to hi inclusive, at least 3 of them; the 0 Hz line is never one.
    """
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}")
    values, rate = _series_values(series, domain)
    duration = values.size / rate
    if duration < MIN_SERIES_S:
        raise ValueError(f"series of {duration:.3f} s is too short to analyze")
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy lo < hi, got {band}")
    freqs = np.fft.rfftfreq(values.size, d=1.0 / rate)[1:]
    keep = (freqs >= lo) & (freqs <= hi)
    if keep.sum() < 3:
        raise ValueError(f"fewer than 3 spectrum samples in band {band}")
    coefs = np.fft.rfft(values - values.mean())[1:]
    return freqs[keep], np.abs(coefs[keep])


def normalize_log_detrend(freqs: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """Log-scale a band's magnitudes and remove their least-squares line.

    The residuals sit on a near-flat baseline, so peak magnitudes become
    comparable across frequencies despite the overall spectral tilt.
    Detrending in the log domain also makes the result independent of the
    input gain.
    """
    logmag = np.log10(magnitude + LOG_FLOOR)
    a, b = np.polyfit(freqs, logmag, 1)
    return logmag - (a * freqs + b)

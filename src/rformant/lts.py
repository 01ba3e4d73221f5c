"""Long-term spectra of modulation-domain series.

One full-length Fourier transform per series, no windowing and no
segmentation. The useful rhythm structure lives in the first few Hz, so a
whole-utterance transform is what gives enough frequency resolution there
(a 5 s clip yields 0.2 Hz bins). Spectra are then log-scaled and detrended
with a least-squares line over the analysis band, leaving residuals on a
near-flat baseline for peak picking.
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
    """Single-sided spectrum of one modulation domain of one utterance.

    ``residual`` and ``band`` appear after normalize_log_detrend; until
    then the spectrum is raw linear magnitude over all positive
    frequencies.
    """

    domain: str
    freqs: np.ndarray
    magnitude: np.ndarray
    residual: np.ndarray | None = None
    band: tuple[float, float] | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=np.float64))
        object.__setattr__(self, "magnitude", np.asarray(self.magnitude, dtype=np.float64))
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        f, m = self.freqs, self.magnitude
        if f.ndim != 1 or f.size == 0 or f.shape != m.shape:
            raise ValueError("freqs and magnitude must be equal-length 1-D arrays")
        if np.any(m < 0):
            raise ValueError("magnitudes must be nonnegative")
        if f.size > 1:
            df = np.diff(f)
            if np.any(df <= 0):
                raise ValueError("freqs must be strictly ascending")
            step = df[0]
            if np.any(np.abs(df - step) > 1e-9 * step):
                raise ValueError("frequency spacing must be uniform")
        if self.residual is not None:
            r = np.asarray(self.residual, dtype=np.float64)
            object.__setattr__(self, "residual", r)
            if r.shape != f.shape:
                raise ValueError("residual length must match freqs")
            if f.size >= 3:
                a, b = np.polyfit(f, r, 1)
                if abs(a) > 1e-6 or abs(b) > 1e-6:
                    raise ValueError("residual is not detrended (nonzero line fit)")

    @property
    def delta_f(self) -> float:
        return float(self.freqs[1] - self.freqs[0]) if self.freqs.size > 1 else 0.0


def _series_values(series, domain: str) -> tuple[np.ndarray, float, str]:
    """Check the series matches the domain and pull out values and rate."""
    if domain == AMS:
        if not isinstance(series, SignalBuffer):
            raise TypeError("AMS expects a rectified SignalBuffer")
        if np.any(series.samples < 0):
            raise ValueError("AMS input must be rectified (nonnegative)")
        return series.samples, series.rate, series.label
    if not isinstance(series, Track):
        raise TypeError(f"{domain} expects a Track")
    want = ENVELOPE if domain == AEMS else F0_CONTINUOUS
    if series.kind != want:
        raise ValueError(f"{domain} expects a {want} track, got {series.kind!r}")
    return series.values, series.rate, ""


def long_term_spectrum(series, domain: str, label: str = "") -> LongTermSpectrum:
    """Whole-series spectrum of a modulation-domain series.

    The series mean is removed first (the 0 Hz line carries no rhythm),
    then a single real FFT of the entire series gives magnitudes at
    multiples of 1/duration.
    """
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}")
    values, rate, inherited = _series_values(series, domain)
    label = label or inherited
    duration = values.size / rate
    if duration < MIN_SERIES_S:
        raise ValueError(f"series of {duration:.3f} s is too short to analyze")
    coefs = np.fft.rfft(values - values.mean())
    freqs = np.fft.rfftfreq(values.size, d=1.0 / rate)
    # drop the 0 Hz bin: only positive frequencies are meaningful here
    return LongTermSpectrum(
        domain=domain,
        freqs=freqs[1:],
        magnitude=np.abs(coefs[1:]),
        label=label,
    )


def normalize_log_detrend(
    spec: LongTermSpectrum, band: tuple[float, float] = (1.0, 10.0)
) -> LongTermSpectrum:
    """Restrict to a band, log-scale, and remove the least-squares line.

    The residuals sit on a near-flat baseline, so peak magnitudes become
    comparable across frequencies despite the overall spectral tilt.
    Detrending in the log domain also makes the result independent of the
    input gain.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy lo < hi, got {band}")
    keep = (spec.freqs >= lo) & (spec.freqs <= hi)
    if keep.sum() < 3:
        raise ValueError(f"fewer than 3 spectrum samples in band {band}")
    f = spec.freqs[keep]
    m = spec.magnitude[keep]
    logmag = np.log10(m + LOG_FLOOR)
    a, b = np.polyfit(f, logmag, 1)
    return LongTermSpectrum(
        domain=spec.domain,
        freqs=f,
        magnitude=m,
        residual=logmag - (a * f + b),
        band=(float(lo), float(hi)),
        label=spec.label,
    )


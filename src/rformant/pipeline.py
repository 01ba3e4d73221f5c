"""Per-utterance analysis pipeline: WAV in, rhythm report out.

Chains the stages in the canonical order: load and trim, rectify, three
demodulation branches (decimated rectified signal, peak-picked envelope,
continuized F0), a long-term spectrum per branch, detrending over the
analysis band, and R-formant profile extraction. An utterance with no
voiced frames, or with an F0 track under MIN_SERIES_S, has no FM branch;
the report marks FEMS absent rather than failing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .audio_io import SignalBuffer, load_wav, resample
from .config import AnalysisConfig
from .demodulation import (
    UNVOICED,
    Track,
    amdf_f0,
    continuize_f0,
    envelope_peak_pick,
    rectify,
)
from .lts import AEMS, AMS, FEMS, MIN_SERIES_S, LongTermSpectrum, long_term_spectrum, normalize_log_detrend
from .profiles import (
    RFormantProfile,
    rhythm_bars,
    top_n_frequencies,
    weighted_bins,
)
from .stats import pearson_r

PAIRS = ("AMS:AEMS", "AMS:FEMS", "AEMS:FEMS")
AMS_RATE_HZ = 200.0  # rate of the AMS series, the block-mean rectified signal


@dataclass
class UtteranceReport:
    """Everything the reporting layer needs about one analyzed clip."""

    label: str
    duration_s: float
    band: tuple[float, float]
    n_bins: int
    spectra: dict[str, LongTermSpectrum]
    profiles: dict[str, RFormantProfile]
    bars: dict[str, list[float]]
    pearson: dict[str, float | None]
    signal: SignalBuffer
    envelope: Track
    f0_track: Track

    @property
    def fems_absent(self) -> bool:
        return FEMS not in self.profiles


def profile(spec: LongTermSpectrum, n: int = 6, n_bins: int = 10) -> RFormantProfile:
    """Top-n peaks plus their weighted histogram, as one record."""
    if spec.band is None:
        raise ValueError("spectrum has no band; normalize it first")
    # called through this module's names, which the benchmark's tracer wraps
    peaks = top_n_frequencies(spec, n)
    return RFormantProfile(
        label=spec.label,
        domain=spec.domain,
        peaks=peaks,
        bins=weighted_bins(peaks, spec.band, n_bins),
        band=spec.band,
        n_bins=n_bins,
    )


def analyze_signal(sig: SignalBuffer, config: AnalysisConfig | None = None) -> UtteranceReport:
    """Run the full per-clip pipeline on an in-memory signal."""
    cfg = config or AnalysisConfig()
    rect = rectify(sig)

    series = {AMS: resample(rect, AMS_RATE_HZ)}  # kept in DOMAINS order
    envelope = envelope_peak_pick(rect)
    series[AEMS] = envelope

    # the AMDF costs samples x lags, both proportional to the rate; track F0
    # on one copy at 20 samples per period of f0_max (8 kHz by default), so
    # every input rate is tracked on the same band; lower rates stay as they are
    f0 = amdf_f0(
        resample(sig, min(sig.rate, 20 * cfg.f0_max_hz)),
        f0_min=cfg.f0_min_hz,
        f0_max=cfg.f0_max_hz,
    )
    if np.any(f0.values != UNVOICED):  # no voiced frames: FM branch absent
        f0_s = f0.values.size / f0.rate  # F0 framing drops a clip's last partial frame
        if f0_s >= MIN_SERIES_S:
            series[FEMS] = continuize_f0(f0)
        else:
            warnings.warn(f"{sig.label} FEMS: F0 track of {f0_s:.3f} s is under "
                          f"{MIN_SERIES_S:g} s; FEMS absent", stacklevel=2)

    spectra, profs, bars = {}, {}, {}
    for domain, s in series.items():
        spec = normalize_log_detrend(long_term_spectrum(s, domain, sig.label), cfg.band)
        spectra[domain] = spec
        profs[domain] = profile(spec, cfg.n_peaks, cfg.n_bins)
        bars[domain] = rhythm_bars(spec)

    pearson: dict[str, float | None] = {}
    for pair in PAIRS:
        da, db = pair.split(":")
        if da in profs and db in profs:
            try:
                pearson[pair] = pearson_r(profs[da].bins, profs[db].bins)
            except ValueError:
                pearson[pair] = None  # degenerate all-zero bins
        else:
            pearson[pair] = None

    return UtteranceReport(
        label=sig.label,
        duration_s=sig.duration,
        band=cfg.band,
        n_bins=cfg.n_bins,
        spectra=spectra,
        profiles=profs,
        bars=bars,
        pearson=pearson,
        signal=sig,
        envelope=envelope,
        f0_track=f0,
    )


def analyze_clip(path, config: AnalysisConfig | None = None) -> UtteranceReport:
    """Load a WAV, trim it, and analyze it."""
    cfg = config or AnalysisConfig()
    return analyze_signal(load_wav(path, trim_s=cfg.trim_s), cfg)

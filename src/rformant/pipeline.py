"""Per-utterance analysis pipeline: WAV in, rhythm report out.

Chains the stages in the canonical order: load and trim, rectify, three
demodulation branches (decimated rectified signal, peak-picked envelope,
continuized F0), a long-term spectrum per branch, detrending over the
analysis band, and R-formant profile extraction. A domain with nothing to
profile (FEMS without voiced frames or with an F0 track under MIN_SERIES_S,
any domain with a flat spectrum) is absent, and the report's notes say why.
"""

from __future__ import annotations

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
from .lts import (AEMS, AMS, FEMS, MIN_SERIES_S, SHORT_SERIES_S, LongTermSpectrum,
                  long_term_spectrum, normalize_log_detrend)
from .profiles import (
    RFormantProfile,
    rhythm_bars,
    top_n_frequencies,
    weighted_bins,
)
from .stats import pearson_r

PAIRS = ("AMS:AEMS", "AMS:FEMS", "AEMS:FEMS")
AMS_RATE_HZ = 200.0  # rate of the AMS series, the block-mean rectified signal
FLAT_RANGE = 1e-9  # a detrended residual spanning no more than this has no R-formant


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
    notes: tuple[str, ...] = ()  # why a domain is absent or a series short


def profile(spec: LongTermSpectrum, n: int = 6, n_bins: int = 10) -> RFormantProfile:
    """Top-n peaks plus their weighted histogram, as one record."""
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
    fems_note = None
    if not np.any(f0.values != UNVOICED):
        fems_note = "FEMS absent: no voiced frames"
    elif f0.duration < MIN_SERIES_S:  # F0 framing drops a clip's last partial frame
        fems_note = f"FEMS absent: F0 track of {f0.duration:.3f} s is under {MIN_SERIES_S:g} s"
    else:
        series[FEMS] = continuize_f0(f0)

    spectra, profs, bars, notes = {}, {}, {}, []
    if sig.clipped:
        notes.append(f"{sig.clipped} of {sig.samples.size} samples beyond ±1 clipped on read")
    for domain, s in series.items():
        freqs, mag = long_term_spectrum(s, domain, cfg.band)
        spec = LongTermSpectrum(domain, freqs, mag, normalize_log_detrend(freqs, mag),
                                cfg.band, sig.label)
        if np.ptp(spec.residual) <= FLAT_RANGE:
            notes.append(f"{domain} absent: flat spectrum")
            continue
        if s.duration < SHORT_SERIES_S:
            notes.append(f"{domain}: series of {s.duration:.3f} s is under {SHORT_SERIES_S:g} s; "
                         "low-frequency resolution will be coarse")
        spectra[domain] = spec
        profs[domain] = profile(spec, cfg.n_peaks, cfg.n_bins)
        bars[domain] = rhythm_bars(spec)
    if fems_note:
        notes.append(fems_note)

    pearson: dict[str, float | None] = {}
    for pair in PAIRS:
        da, db = pair.split(":")
        if da in profs and db in profs:
            try:
                pearson[pair] = pearson_r(profs[da].bins, profs[db].bins)
            except ValueError:
                pearson[pair] = None  # constant bins have no variance to correlate
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
        notes=tuple(notes),
    )


def analyze_clip(path, config: AnalysisConfig | None = None) -> UtteranceReport:
    """Load a WAV, trim it, and analyze it."""
    cfg = config or AnalysisConfig()
    return analyze_signal(load_wav(path, trim_s=cfg.trim_s), cfg)

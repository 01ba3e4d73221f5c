"""Seeded synthetic speech-like corpus, written as WAV files only.

Each clip is a harmonic source on a drifting F0 contour, gated by a
syllable-rate envelope, plus a noise floor. Some clips replace the
harmonic source by noise over a long stretch (an unvoiced run). The
ground truth of every clip (syllable rate, median voiced F0 over the
analyzed head of the clip) is returned to the caller and never written
next to the audio, so the program under test sees only the WAV files.

The same seed gives byte-identical files; the composition of each
workload (rates, formats, lengths) is fixed, so the amount of work per
run does not depend on the seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRIM_S = 5.0  # the program's default head trim; F0 truth is taken over it
SYLLABLE_HZ = (2.5, 7.5)
F0_HZ = (95.0, 240.0)
FORMATS = ("int16", "int24", "float32", "stereo_f32")
# At 8 kHz the AMDF tracker's median F0 is biased low once F0 rises: on
# 400 seeded 3.2 s clips the worst error was 2.3% below 170 Hz, 4.6% at
# 170-215 Hz and 6.6% at 215-240 Hz, past the 5% check (the strict xfail
# test in test_perfbench.py pins one such clip). 8 kHz clips stay below
# this F0 so that every run passes its checks on the parent program.
F0_MAX_8K = 165.0


@dataclass(frozen=True)
class ClipSpec:
    rate: int
    fmt: str
    dur_s: float
    unvoiced_s: float = 0.0  # length of one unvoiced stretch inside the clip


@dataclass(frozen=True)
class Truth:
    label: str
    path: Path
    rate: int
    fmt: str
    dur_s: float
    syllable_hz: float
    f0_median_hz: float


def _cycle(values, n):
    return [values[i % len(values)] for i in range(n)]


def hi_rate_specs(n: int) -> list[ClipSpec]:
    """Common recording rates: 44.1 kHz (interpolating resample) and 48 kHz."""
    rates = _cycle((44100, 48000), n)
    durs = _cycle((6.5, 3.3, 5.5, 3.2, 4.0, 3.5, 4.5), n)
    unv = _cycle((0.0, 0.0, 1.2, 0.0, 1.0, 0.0, 0.0), n)
    fmts = _cycle(FORMATS, n)
    return [ClipSpec(r, f, d, u) for r, f, d, u in zip(rates, fmts, durs, unv)]


def lo_rate_specs(n: int) -> list[ClipSpec]:
    """16 kHz clips with every fourth at 8 kHz."""
    rates = _cycle((16000, 16000, 16000, 8000), n)
    durs = _cycle((6.0, 3.5, 5.5, 4.0, 3.2, 6.5, 4.5, 5.2), n)
    unv = _cycle((0.0, 1.2, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0), n)
    fmts = _cycle(FORMATS[1:] + FORMATS[:1], n)
    return [ClipSpec(r, f, d, u) for r, f, d, u in zip(rates, fmts, durs, unv)]


def cheap_specs(n: int) -> list[ClipSpec]:
    """Short, fully voiced 8 kHz clips: the cheapest path to a full report."""
    fmts = _cycle(FORMATS, n)
    return [ClipSpec(8000, f, 3.2) for f in fmts]


def _f0_contour(rng, t, base):
    """Slow sinusoidal drift of about +-8% plus a gentle glide."""
    drift = 0.08 * np.sin(2 * np.pi * rng.uniform(0.15, 0.45) * t + rng.uniform(0, 2 * np.pi))
    glide = rng.uniform(-0.04, 0.04) * (t / max(t[-1], 1e-9))
    return base * (1.0 + drift + glide)


def _syllable_envelope(rng, t, rate_hz):
    """Raised-cosine pulses at the syllable rate with per-syllable gains."""
    phase = rng.uniform(0, 1)
    cycles = t * rate_hz + phase
    n_syl = int(np.ceil(cycles[-1])) + 1
    gains = rng.uniform(0.8, 1.0, size=n_syl)
    shape = 0.5 - 0.5 * np.cos(2 * np.pi * cycles)
    return gains[np.floor(cycles).astype(np.int64)] * shape


def synthesize(rng, spec: ClipSpec, syllable_hz: float, f0_base: float):
    """Mono float samples in [-1, 1] and the median voiced F0 of the head."""
    n = int(round(spec.dur_s * spec.rate))
    t = np.arange(n) / spec.rate
    f0 = _f0_contour(rng, t, f0_base)
    phase = 2 * np.pi * np.cumsum(f0) / spec.rate
    n_harm = int(min(4000.0, 0.45 * spec.rate) // (f0_base * 1.1))
    source = np.zeros(n)
    for k in range(1, n_harm + 1):
        source += np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k
    source /= np.max(np.abs(source))

    voiced = np.ones(n, dtype=bool)
    if spec.unvoiced_s > 0:
        start = rng.uniform(0.15, 0.5) * (spec.dur_s - spec.unvoiced_s)
        lo, hi = int(start * spec.rate), int((start + spec.unvoiced_s) * spec.rate)
        voiced[lo:hi] = False
        noise = rng.standard_normal(hi - lo)
        source[lo:hi] = 0.5 * noise / np.max(np.abs(noise))

    x = _syllable_envelope(rng, t, syllable_hz) * source
    x += 10 ** (-45 / 20) * rng.standard_normal(n)
    x *= rng.uniform(0.5, 0.9) / np.max(np.abs(x))

    head = min(n, int(round(TRIM_S * spec.rate)))
    return x, float(np.median(f0[:head][voiced[:head]]))


def _write_wav(path: Path, rate: int, fmt: str, x: np.ndarray, rng) -> None:
    if fmt == "float32":
        data, tag, bits, channels = x.astype("<f4"), 3, 32, 1
    elif fmt == "int16":
        data, tag, bits, channels = np.round(x * 32767).astype("<i2"), 1, 16, 1
    elif fmt == "stereo_f32":
        # the two channels differ slightly in gain, as two microphones would
        right = x * rng.uniform(0.85, 1.0)
        data = np.stack([x, right], axis=1).astype("<f4")
        tag, bits, channels = 3, 32, 2
    elif fmt == "int24":
        v = np.round(x * (2 ** 23 - 1)).astype("<i4")
        data = v.view(np.uint8).reshape(-1, 4)[:, :3]
        tag, bits, channels = 1, 24, 1
    else:
        raise ValueError(f"unknown format {fmt!r}")
    payload = np.ascontiguousarray(data).tobytes()
    block = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * block, block, bits)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


def write_corpus(out_dir: Path, specs, seed: int, prefix: str) -> list[Truth]:
    """Render one WAV per spec under ``out_dir``; return each clip's truth.

    Syllable rates are stratified over ``SYLLABLE_HZ`` (one random rate
    per equal-width stratum, strata shuffled by the seed), so a cohort
    spreads over the whole range whatever the seed. Base F0s are
    stratified the same way over a fixed shuffle: each clip keeps its F0
    band from seed to seed, because the F0 tracker's octave check costs
    more at low F0 and the work per clip should not depend on the seed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    n = len(specs)
    rng = np.random.default_rng([seed, n, sum(map(ord, prefix))])
    lo, hi = SYLLABLE_HZ
    strata = rng.permutation(n)
    f0_strata = np.random.default_rng(n).permutation(n)
    truths = []
    for i, spec in enumerate(specs):
        syllable_hz = lo + (hi - lo) / n * (strata[i] + rng.uniform(0.1, 0.9))
        f0_lo, f0_hi = F0_HZ[0], F0_MAX_8K if spec.rate <= 8000 else F0_HZ[1]
        f0_base = f0_lo + (f0_hi - f0_lo) / n * (f0_strata[i] + rng.uniform(0.1, 0.9))
        x, f0_median = synthesize(rng, spec, syllable_hz, f0_base)
        label = f"{prefix}{i:03d}"
        path = out_dir / f"{label}.wav"
        _write_wav(path, spec.rate, spec.fmt, x, rng)
        truths.append(Truth(label, path, spec.rate, spec.fmt, spec.dur_s, syllable_hz, f0_median))
    return truths

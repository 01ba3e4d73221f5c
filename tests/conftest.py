"""Shared helpers: synthetic signals and on-disk WAV fixtures."""

import struct
import sys

import numpy as np
from scipy.io import wavfile


def sine(freq_hz, dur_s, rate, amp=1.0, phase=0.0):
    t = np.arange(int(round(dur_s * rate))) / rate
    return amp * np.sin(2 * np.pi * freq_hz * t + phase)


def am_tone(carrier_hz, mod_hz, dur_s, rate, depth=1.0):
    """Carrier sine with sinusoidal amplitude modulation of given depth."""
    t = np.arange(int(round(dur_s * rate))) / rate
    env = 1.0 + depth * np.sin(2 * np.pi * mod_hz * t)
    return (env / (1.0 + depth)) * np.sin(2 * np.pi * carrier_hz * t)


def pulse_train(pulse_hz, dur_s, rate, carrier_hz=440.0, sigma_s=0.065):
    """Tone bursts with Gaussian envelopes repeating at ``pulse_hz``.

    A rough stand-in for a syllable sequence: broad pulses concentrate the
    envelope spectrum around the repetition rate instead of spreading it
    across many harmonics.
    """
    n = int(round(dur_s * rate))
    t = np.arange(n) / rate
    env = np.zeros(n)
    period = 1.0 / pulse_hz
    k = 0
    while k * period < dur_s + 4 * sigma_s:
        env += np.exp(-0.5 * ((t - k * period) / sigma_s) ** 2)
        k += 1
    env /= env.max()
    return env * np.sin(2 * np.pi * carrier_hz * t)


def harmonic_voice(f0_of_t, rate, dur_s, syllable_hz=None, seed=0):
    """Voiced-speech stand-in: a harmonic source on an F0 contour.

    Harmonics up to 3.8 kHz with 1/k amplitudes and seeded random phases,
    optionally gated by raised-cosine syllables at ``syllable_hz``, plus a
    noise floor 45 dB down. ``f0_of_t`` maps sample times (s) to Hz.
    """
    t = np.arange(int(round(dur_s * rate))) / rate
    f0 = f0_of_t(t)
    phase = 2 * np.pi * np.cumsum(f0) / rate
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0, 2 * np.pi, 64)
    x = np.zeros(t.size)
    for k in range(1, int(3800.0 // f0.max()) + 1):
        x += np.sin(k * phase + offsets[k]) / k
    if syllable_hz is not None:
        x *= 0.5 - 0.5 * np.cos(2 * np.pi * syllable_hz * t)
    x = x / np.abs(x).max() + 10 ** (-45 / 20) * rng.standard_normal(t.size)
    return 0.8 * x / np.abs(x).max()


def autocorr_f0_oracle(
    x, rate, f0_min=60.0, f0_max=400.0, frame_ms=40.0, hop_ms=10.0, min_r=0.5
):
    """Frame-wise F0 by normalized autocorrelation peak.

    Independent cross-check for the AMDF tracker: same framing, different
    method. Frames whose best correlation is below ``min_r`` report 0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    n_frame = int(round(rate * frame_ms / 1000.0))
    hop = rate * hop_ms / 1000.0
    tau_min = int(np.ceil(rate / f0_max))
    tau_max = int(np.floor(rate / f0_min))
    taus = np.arange(tau_min, tau_max + 1)
    n_frames = int(np.floor((x.size - n_frame) / hop)) + 1
    out = np.zeros(n_frames)
    for j in range(n_frames):
        start = int(round(j * hop))
        s = x[start : start + n_frame]
        s = s - s.mean()
        ac = np.correlate(s, s, "full")[n_frame - 1 :]
        csq = np.concatenate(([0.0], np.cumsum(s * s)))
        e_head = csq[n_frame - taus]
        e_tail = csq[n_frame] - csq[taus]
        denom = np.sqrt(e_head * e_tail)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(denom > 0, ac[taus] / denom, -1.0)
        r_max = float(r.max())
        if r_max > min_r:
            # periodic frames correlate nearly equally at lag multiples
            # (sampling artifacts cost a few percent), so among local
            # maxima of r prefer the smallest lag near the global best
            peak = np.ones(r.size, dtype=bool)
            peak[1:] &= r[1:] >= r[:-1]
            peak[:-1] &= r[:-1] >= r[1:]
            cand = np.flatnonzero(peak & (r >= r_max - 0.05))
            out[j] = rate / taus[cand[0]]
    return out


def write_wav(path, rate, samples, dtype="int16"):
    """Write float samples in [-1, 1] to a WAV file of the given sample type."""
    x = np.asarray(samples, dtype=np.float64)
    if dtype == "int16":
        data = np.round(np.clip(x, -1, 1) * (2 ** 15 - 1)).astype(np.int16)
    elif dtype == "uint8":
        data = np.round(np.clip(x, -1, 1) * 127 + 128).astype(np.uint8)
    elif dtype == "float32":
        data = x.astype(np.float32)
    elif dtype == "int24":
        write_wav24(path, rate, x)
        return
    else:
        raise ValueError(dtype)
    wavfile.write(str(path), int(rate), data)


def write_wav24(path, rate, samples):
    """Hand-pack a mono 24-bit PCM WAV (scipy cannot write these)."""
    x = np.asarray(samples, dtype=np.float64)
    vals = np.round(np.clip(x, -1, 1) * (2 ** 23 - 1)).astype(np.int32)
    raw = bytearray()
    for v in vals:
        raw += struct.pack("<i", int(v))[:3]  # low 3 bytes, little-endian
    n = len(raw)
    hdr = b"RIFF" + struct.pack("<I", 36 + n) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, int(rate), int(rate) * 3, 3, 24)
    hdr += b"data" + struct.pack("<I", n)
    with open(path, "wb") as fh:
        fh.write(hdr + bytes(raw))


def write_wav_format(path, rate, fmt_tag, bits, payload):
    """Write a syntactically valid WAV with an arbitrary format tag."""
    n = len(payload)
    block = max(1, bits // 8)
    hdr = b"RIFF" + struct.pack("<I", 36 + n) + b"WAVE"
    hdr += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_tag, 1, int(rate), int(rate) * block, block, bits
    )
    hdr += b"data" + struct.pack("<I", n)
    with open(path, "wb") as fh:
        fh.write(hdr + payload)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts after the run.

    Passing tests have their stdout captured, so without this hook the
    per-criterion lines would only show up under -s.
    """
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)

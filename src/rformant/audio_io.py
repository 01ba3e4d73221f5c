"""WAV loading, trimming, and rate conversion.

Everything downstream works on :class:`SignalBuffer`: mono float samples in
[-1, 1] plus a sample rate and an utterance label. Clips are trimmed to a
fixed head duration (default 5 s) so spectra of different recordings share
the same frequency resolution.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.io.wavfile import WavFileWarning


class AudioFileError(ValueError):
    """Unreadable, truncated, unsupported, or empty audio file."""


# warning-filter manipulation below touches process-global state
_READ_LOCK = threading.Lock()


@dataclass(frozen=True)
class SignalBuffer:
    """Uniformly sampled mono audio in [-1, 1]."""

    samples: np.ndarray
    rate: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        peak = float(np.max(np.abs(self.samples)))
        if peak > 1.0 + 1e-12:
            raise ValueError(f"samples exceed [-1, 1] (peak {peak:g})")

    @property
    def duration(self) -> float:
        return self.samples.size / self.rate


def load_wav(path, trim_s: float | None = None) -> SignalBuffer:
    """Load a RIFF/WAVE file as a mono SignalBuffer.

    Accepts 8/16/24-bit integer PCM and 32-bit float, mono or stereo, any
    rate. Integer samples are scaled by 1/2^(bits-1); stereo is then mixed
    down by the per-sample channel mean. ``trim_s`` keeps at most that many
    seconds from the start (the whole file if it is shorter).
    """
    path = Path(path)
    try:
        with _READ_LOCK, warnings.catch_warnings():
            # scipy only warns on truncated data; a short read is an error here
            warnings.simplefilter("error", WavFileWarning)
            rate, data = wavfile.read(str(path))
    except (ValueError, WavFileWarning) as exc:
        raise AudioFileError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise AudioFileError(f"{path}: cannot read file ({exc})") from exc

    if data.size == 0:
        raise AudioFileError(f"{path}: zero-length audio")
    if data.ndim == 2 and data.shape[1] > 2:
        raise AudioFileError(f"{path}: {data.shape[1]} channels, expected 1 or 2")
    if data.ndim not in (1, 2):
        raise AudioFileError(f"{path}: unsupported sample layout {data.shape}")

    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        samples = data.astype(np.float64) / 2 ** 15
    elif data.dtype == np.int32:
        # scipy left-justifies 24-bit PCM into int32, so 2^31 is full scale
        samples = data.astype(np.float64) / 2 ** 31
    elif data.dtype in (np.float32, np.float64):
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    else:
        raise AudioFileError(f"{path}: unsupported sample type {data.dtype}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)  # after scaling, so the dtype is still known

    if trim_s is not None:
        if trim_s <= 0:
            raise ValueError(f"trim_s must be positive, got {trim_s}")
        n = min(samples.size, int(round(trim_s * rate)))
        samples = samples[:n]

    return SignalBuffer(samples=samples, rate=float(rate), label=path.stem)


def resample(sig: SignalBuffer, target_rate: float) -> SignalBuffer:
    """Convert a SignalBuffer to a new sample rate.

    One path for every ratio r = rate / target_rate: average each block of
    k = floor(r) samples (the block mean doubles as an anti-alias filter and
    keeps the DC level), then, if a fractional ratio is left over, linearly
    interpolate the block means to the target rate. An integer ratio is the
    block mean alone; upsampling (k = 1) is interpolation alone. A trailing
    partial block is dropped.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == sig.rate:
        return sig

    x = sig.samples
    ratio = sig.rate / target_rate
    k = max(1, int(np.floor(ratio + 1e-9)))
    if k > 1:
        n_blocks = x.size // k
        if n_blocks == 0:
            raise ValueError(f"signal too short to decimate by {k}")
        x = x[: n_blocks * k].reshape(n_blocks, k).mean(axis=1)
    if abs(ratio - k) >= 1e-9:
        n_out = int(round(sig.samples.size * target_rate / sig.rate))
        if n_out == 0:
            raise ValueError("signal too short for target rate")
        t_out = np.arange(n_out) / target_rate
        t_in = np.arange(x.size) / (sig.rate / k)
        x = np.interp(t_out, t_in, x)

    return replace(sig, samples=x, rate=float(target_rate))

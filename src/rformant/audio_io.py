"""WAV loading, trimming, and rate conversion.

Everything downstream works on :class:`SignalBuffer`: mono float samples in
[-1, 1] plus a sample rate and an utterance label. Clips are trimmed to a
fixed head duration (default 5 s), so the spectra of clips at least that
long share one frequency resolution. A shorter clip keeps its whole length
and a coarser grid: a 3.5 s clip has a 0.286 Hz grid, not 0.2 Hz.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


class AudioFileError(ValueError):
    """Unreadable, truncated, unsupported, or empty audio file."""


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


_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_BYTE_ORDER = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}
# bytes 4-15 of the KSDATAFORMAT_SUBTYPE GUID whose first bytes are the tag;
# RIFX stores its 2-byte groups big-endian
_GUID_TAIL = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


def _parse_fmt(body: bytes, order: str, path) -> tuple[int, int, int, int, int]:
    """(format tag, channels, rate, block align, bits) of a 'fmt ' chunk body."""
    tag, channels, rate, _, block_align, bits = struct.unpack(order + "HHIIHH", body[:16])
    if tag == _EXTENSIBLE:
        if len(body) < 40:
            raise AudioFileError(f"{path}: WAVE_FORMAT_EXTENSIBLE 'fmt ' chunk is too short")
        guid = body[24:40]
        if guid[4:] == _GUID_TAIL[order]:
            tag = struct.unpack(order + "I", guid[:4])[0]
    return tag, channels, rate, block_align, bits


def _find_data(fh, path) -> tuple[str, tuple[int, int, int, int, int], int]:
    """Walk the chunks up to 'data'; return byte order, format and data size.

    Leaves ``fh`` at the first byte of the data. Unknown chunks are skipped
    with their pad byte. Nothing after 'data' is read, and the RIFF size
    field is not used; the caller checks the data size against the file.
    """
    head = fh.read(12)
    if len(head) < 12 or head[:4] not in _BYTE_ORDER or head[8:] != b"WAVE":
        raise AudioFileError(f"{path}: not a RIFF, RIFX or RF64 WAVE file")
    order = _BYTE_ORDER[head[:4]]
    fmt = rf64_size = None
    while True:
        header = fh.read(8)
        if not header:
            raise AudioFileError(f"{path}: no 'data' chunk")
        if len(header) < 8:
            raise AudioFileError(f"{path}: chunk header cut off at the end of the file")
        chunk_id, size = header[:4], struct.unpack(order + "I", header[4:])[0]
        if chunk_id == b"data":
            if fmt is None:
                raise AudioFileError(f"{path}: no 'fmt ' chunk before 'data'")
            if head[:4] == b"RF64":
                if rf64_size is None:
                    raise AudioFileError(f"{path}: RF64 file without a 'ds64' chunk")
                size = rf64_size
            return order, fmt, size
        if chunk_id in (b"fmt ", b"ds64"):
            body = fh.read(size)
            if len(body) < size or size < 16:
                raise AudioFileError(f"{path}: malformed {chunk_id.decode('latin-1')!r} chunk")
            if chunk_id == b"fmt ":
                fmt = _parse_fmt(body, order, path)
            else:
                rf64_size = struct.unpack("<Q", body[8:16])[0]
            fh.seek(size & 1, os.SEEK_CUR)
        else:
            fh.seek(size + (size & 1), os.SEEK_CUR)


def load_wav(path, trim_s: float | None = None) -> SignalBuffer:
    """Load a RIFF/RIFX/RF64 WAVE file as a mono SignalBuffer.

    Accepts integer PCM in 8-, 16-, 24- or 32-bit containers and 32- or
    64-bit IEEE float, plain or WAVE_FORMAT_EXTENSIBLE, mono or stereo, any
    rate. Integer samples are scaled by 1/2^(bits-1) (8-bit, which is
    unsigned, by (x-128)/128); float samples must be finite and are clipped
    to [-1, 1]. Stereo is then mixed down by the per-sample channel mean.
    ``trim_s`` keeps at most that many seconds from the start (the whole
    file if it is shorter); only those frames are read.
    """
    if trim_s is not None and trim_s <= 0:
        raise ValueError(f"trim_s must be positive, got {trim_s}")
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            order, (tag, channels, rate, block_align, bits), size = _find_data(fh, path)
            if tag not in (_PCM, _FLOAT):
                raise AudioFileError(f"{path}: unsupported format tag {tag:#06x}")
            if channels not in (1, 2):
                raise AudioFileError(f"{path}: {channels} channels, expected 1 or 2")
            width, rest = divmod(block_align, channels)
            if tag == _PCM:
                known = 1 <= width <= 4 and (bits + 7) // 8 == width
            else:
                known = width in (4, 8) and bits == 8 * width
            if rest or not known:
                raise AudioFileError(
                    f"{path}: unsupported bit depth {bits} in {block_align}-byte frames"
                )
            if rate == 0:
                raise AudioFileError(f"{path}: sample rate 0")
            available = os.fstat(fh.fileno()).st_size - fh.tell()
            if size > available:
                raise AudioFileError(
                    f"{path}: 'data' chunk declares {size} bytes, the file holds {available}"
                )
            n = size // block_align
            if trim_s is not None:
                n = min(n, int(round(trim_s * rate)))
            if n == 0:
                raise AudioFileError(f"{path}: zero-length audio")
            raw = fh.read(n * block_align)
    except OSError as exc:
        raise AudioFileError(f"{path}: cannot read file ({exc.strerror or exc})") from exc

    if width == 3:
        # left-justify 24-bit samples into int32, so they scale as 32-bit PCM
        wide = np.zeros((n * channels, 4), dtype=np.uint8)
        cols = slice(1, 4) if order == "<" else slice(0, 3)
        wide[:, cols] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        data = wide.view(order + "i4")[:, 0]
    else:
        kind = "u" if width == 1 else "f" if tag == _FLOAT else "i"
        data = np.frombuffer(raw, dtype=f"{order}{kind}{width}")
    if channels == 2:
        data = data.reshape(n, 2)

    if tag == _FLOAT:
        bad = data.size - int(np.count_nonzero(np.isfinite(data)))
        if bad:
            raise AudioFileError(f"{path}: {bad} non-finite samples")
        samples = data.astype(np.float64)
        np.clip(samples, -1.0, 1.0, out=samples)
    elif width == 1:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64) / 2.0 ** (8 * data.itemsize - 1)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)  # after scaling, so the dtype is still known

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

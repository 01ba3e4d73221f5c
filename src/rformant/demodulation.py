"""AM and FM demodulation of a speech signal.

Three modulation-domain series come out of this module: the rectified
signal (amplitude modulation), a peak-picked positive envelope (amplitude
envelope modulation), and an AMDF fundamental-frequency track (frequency
modulation). All three feed the long-term spectrum stage downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio_io import SignalBuffer

ENVELOPE = "envelope"
F0_RAW = "f0_raw"
F0_CONTINUOUS = "f0_continuous"

_KINDS = (ENVELOPE, F0_RAW, F0_CONTINUOUS)

# unvoiced frames in an F0_RAW track carry this marker
UNVOICED = 0.0

_RMS_GATE = 1e-4

# amdf_f0's frame length; a frame must span two periods of the lowest F0
F0_FRAME_MS = 40.0


@dataclass(frozen=True)
class Track:
    """Uniformly sampled series: amplitude for envelopes, Hz for F0.

    In an F0_RAW track a value of 0.0 marks an unvoiced frame.
    """

    values: np.ndarray
    rate: float
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown track kind {self.kind!r}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.kind == ENVELOPE and np.any(self.values < 0):
            raise ValueError("envelope values must be nonnegative")
        if self.kind == F0_RAW and np.any(self.values < 0):
            raise ValueError("F0 values must be nonnegative")
        if self.kind == F0_CONTINUOUS:
            mean = float(np.mean(self.values))
            if abs(mean) > 1e-9:
                raise ValueError(f"continuized F0 must be mean-subtracted (mean {mean:g})")

    @property
    def duration(self) -> float:
        return self.values.size / self.rate

    def times(self) -> np.ndarray:
        """Sample times in seconds."""
        return np.arange(self.values.size) / self.rate


def rectify(sig: SignalBuffer) -> SignalBuffer:
    """Full-wave rectification: replace every sample by its absolute value."""
    return replace(sig, samples=np.abs(sig.samples))


def envelope_peak_pick(
    rectified: SignalBuffer, window_ms: float = 20.0, hop_ms: float = 5.0
) -> Track:
    """Positive envelope by a peak-picking moving window.

    Envelope value j is the maximum of the rectified samples in a window
    centered at j*hop_ms, clipped to the signal bounds at the edges. The
    output rate is 1000/hop_ms.
    """
    if not 0 < hop_ms <= window_ms:
        raise ValueError(f"need window_ms >= hop_ms > 0, got {window_ms}/{hop_ms}")
    x = rectified.samples
    if np.any(x < 0):
        raise ValueError("input must be rectified (nonnegative)")
    win = int(round(rectified.rate * window_ms / 1000.0))
    hop = rectified.rate * hop_ms / 1000.0
    if x.size < win:
        raise ValueError(f"signal shorter than one {window_ms} ms window")

    n_frames = int(np.floor((x.size - 1) / hop)) + 1
    half = win / 2.0
    center = np.arange(n_frames) * hop
    # np.round, like Python's round, takes halves to even
    lo = np.maximum(0, np.round(center - half).astype(np.int64))
    hi = np.minimum(x.size, np.maximum(lo + 1, np.round(center + half).astype(np.int64)))
    # reduceat over [lo0, hi0, lo1, hi1, ...]: even results are max(x[lo:hi]);
    # the sentinel makes hi == x.size a valid index
    bounds = np.column_stack((lo, hi)).ravel()
    out = np.maximum.reduceat(np.append(x, 0.0), bounds)[::2]
    return Track(values=out, rate=1000.0 / hop_ms, kind=ENVELOPE)


def _amdf_matrix(x: np.ndarray, starts: np.ndarray, n_frame: int, taus: np.ndarray) -> np.ndarray:
    """AMDF of every frame (rows) at every lag (columns).

    One pass per lag over the whole signal, then per-frame sums from the
    prefix table; avoids a frames x lags python loop. The difference and
    prefix buffers are allocated once and reused for every lag.
    """
    amdf = np.empty((starts.size, taus.size))
    d = np.empty(x.size - taus[0])
    c = np.zeros(x.size - taus[0] + 1)
    for k, tau in enumerate(taus):
        n = x.size - tau
        np.subtract(x[:n], x[tau:], out=d[:n])
        np.abs(d[:n], out=d[:n])
        np.cumsum(d[:n], out=c[1 : n + 1])
        amdf[:, k] = (c[starts + n_frame - tau] - c[starts]) / (n_frame - tau)
    return amdf


def _v_fit(row: list[float], i: int) -> tuple[float, float]:
    """Vertex (lag offset, floor) of a V through row[i] and its neighbours."""
    b = row[i]
    if i == 0 or i == len(row) - 1:
        return 0.0, b
    a, c = row[i - 1], row[i + 1]
    s = max(a - b, c - b)
    if s <= 0.0:
        return 0.0, b
    offset = min(max((a - c) / (2.0 * s), -0.5), 0.5)
    return offset, b - s * abs(offset)


def amdf_f0(
    sig: SignalBuffer,
    f0_min: float = 60.0,
    f0_max: float = 400.0,
    frame_ms: float = F0_FRAME_MS,
    hop_ms: float = 10.0,
    voicing_ratio: float = 0.35,
) -> Track:
    """F0 track from the average magnitude difference function.

    Per frame, AMDF(tau) = mean(|s[i] - s[i+tau]|) over the frame for lags
    covering [f0_min, f0_max]; the deepest valley gives the period. A frame
    is voiced when the valley is deep relative to the AMDF mean
    (min/mean < voicing_ratio) and the frame has audible energy. Unvoiced
    frames carry 0.0.

    The true period rarely falls on a whole lag, so each valley compared is
    refined by fitting a V to the lag and its two neighbours a, b, c. Near
    its minimum the AMDF of a periodic signal is a sum of |linear| terms:
    it falls and rises at a constant slope, with a sharp vertex, rather
    than curving like a parabola. With s = max(a - b, c - b), the steeper
    side, the vertex sits at offset (a - c) / (2 s) (clipped to half a lag)
    with floor b - s |offset|. A parabola through a sharp vertex pulls the
    offset toward the sampled lag and leaves the floor too high, so valleys
    at different multiples of the period would compare unequally. The
    octave walk compares floors, and the period is the chosen lag plus its
    offset, so lag quantization at a low sample rate costs neither the
    octave decision nor the F0 value.
    """
    if not 0 < f0_min < f0_max:
        raise ValueError(f"need 0 < f0_min < f0_max, got {f0_min}/{f0_max}")
    if frame_ms < 2000.0 / f0_min:
        raise ValueError(
            f"frame_ms={frame_ms} spans under two periods of f0_min={f0_min} Hz"
        )
    if hop_ms <= 0:
        raise ValueError(f"hop_ms must be positive, got {hop_ms}")

    x = sig.samples
    rate = sig.rate
    n_frame = int(round(rate * frame_ms / 1000.0))
    hop = rate * hop_ms / 1000.0
    if x.size < n_frame:
        raise ValueError(f"signal shorter than one {frame_ms} ms frame")

    tau_min = int(np.ceil(rate / f0_max))
    tau_max = int(np.floor(rate / f0_min))
    if tau_min < 1 or tau_max >= n_frame or tau_min > tau_max:
        raise ValueError(f"lag range [{tau_min}, {tau_max}] unusable at rate {rate}")
    taus = np.arange(tau_min, tau_max + 1)

    n_frames = int(np.floor((x.size - n_frame) / hop)) + 1
    starts = np.round(np.arange(n_frames) * hop).astype(np.int64)

    sq = np.concatenate(([0.0], np.cumsum(x * x)))
    rms = np.sqrt((sq[starts + n_frame] - sq[starts]) / n_frame)

    amdf = _amdf_matrix(x, starts, n_frame, taus)

    best = np.argmin(amdf, axis=1)
    valley = amdf[np.arange(n_frames), best]
    level = amdf.mean(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        depth = np.where(level > 0, valley / level, 1.0)
    voiced = (depth < voicing_ratio) & (rms > _RMS_GATE)

    # a periodic frame has equally deep valleys at every multiple of its
    # true lag, so the raw argmin can land an octave (or more) low; walk to
    # the smallest integer divisor of the winning lag whose valley floor is
    # about as deep
    offset = np.zeros(n_frames)
    for f in np.flatnonzero(voiced):
        row = amdf[f].tolist()  # scalar reads below are cheaper on a list
        i_star = int(best[f])
        off, floor = _v_fit(row, i_star)
        tau_star = int(taus[i_star])
        thresh = floor + 0.05 * (level[f] - floor)
        for k in range(tau_star // tau_min, 1, -1):
            cand = int(round(tau_star / k))  # k <= tau_star // tau_min, so cand >= tau_min
            lo = max(0, cand - tau_min - 1)
            hi = min(taus.size, cand - tau_min + 2)
            i_best = min(range(lo, hi), key=row.__getitem__)
            off_k, floor_k = _v_fit(row, i_best)
            if floor_k <= thresh:
                i_star, off = i_best, off_k
                break
        best[f], offset[f] = i_star, off

    values = np.where(voiced, rate / (taus[best] + offset), UNVOICED)
    return Track(values=values, rate=1000.0 / hop_ms, kind=F0_RAW)


def continuize_f0(f0: Track) -> Track:
    """Fill unvoiced gaps and center an F0 track for spectral analysis.

    Interior unvoiced runs become linear ramps between the flanking voiced
    values; leading and trailing runs hold the nearest voiced value. The
    mean of the filled series is then subtracted so the spectrum has no DC
    step at the frame boundaries.
    """
    if f0.kind != F0_RAW:
        raise ValueError(f"expected an F0_RAW track, got {f0.kind!r}")
    v = f0.values
    voiced = np.flatnonzero(v != UNVOICED)
    if voiced.size == 0:
        raise ValueError("track has no voiced frames")
    filled = np.interp(np.arange(v.size), voiced, v[voiced])
    return Track(values=filled - filled.mean(), rate=f0.rate, kind=F0_CONTINUOUS)

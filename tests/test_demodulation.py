import numpy as np
import pytest
from scipy.signal import sawtooth

from rformant.audio_io import SignalBuffer
from rformant.demodulation import (
    ENVELOPE,
    F0_CONTINUOUS,
    F0_RAW,
    Track,
    _amdf_matrix,
    _v_fit,
    amdf_f0,
    continuize_f0,
    envelope_peak_pick,
    rectify,
)

from conftest import autocorr_f0_oracle, harmonic_voice, sine


def buf(x, rate=16000.0, label="t"):
    return SignalBuffer(np.asarray(x, dtype=np.float64), rate, label)


# ---- rectify ----


def test_rectify_values():
    out = rectify(buf([-0.5, 0.25, 0.0], rate=100.0))
    assert np.array_equal(out.samples, [0.5, 0.25, 0.0])
    assert out.rate == 100.0
    assert out.label == "t"


def test_rectify_identity_on_nonnegative():
    x = np.abs(sine(50, 0.1, 1000))
    assert np.array_equal(rectify(buf(x, 1000.0)).samples, x)


def test_rectify_idempotent():
    x = sine(50, 0.1, 1000, amp=0.9)
    once = rectify(buf(x, 1000.0))
    assert np.array_equal(rectify(once).samples, once.samples)


def test_rectified_sine_mean_approaches_two_over_pi():
    # mean of |a sin| over whole periods is 2a/pi
    a = 0.8
    x = sine(100, 1.0, 16000, amp=a)
    assert abs(np.abs(x).mean() - 2 * a / np.pi) < 1e-3


# ---- envelope_peak_pick ----


def test_envelope_constant():
    out = envelope_peak_pick(buf(np.full(1000, 0.5), 1000.0), 20, 5)
    assert out.kind == ENVELOPE
    assert out.rate == 200.0
    assert np.array_equal(out.values, np.full(out.values.size, 0.5))


def test_envelope_impulse():
    x = np.zeros(2000)
    x[1000] = 1.0
    out = envelope_peak_pick(buf(x, 1000.0), 20, 5)
    assert set(np.unique(out.values)) <= {0.0, 1.0}
    hits = np.flatnonzero(out.values == 1.0)
    assert hits.size >= 3
    # every hit window's center lies within half a window of the impulse
    assert np.all(np.abs(hits * 5.0 - 1000.0) <= 10.0 + 2.5)


def test_envelope_frame_count_and_rate():
    out = envelope_peak_pick(buf(np.abs(sine(440, 5.0, 16000))), 20, 5)
    assert out.rate == 200.0
    assert out.values.size == 1000


def test_envelope_dominates_window_means():
    rng = np.random.default_rng(7)
    x = rng.random(3000)
    sig = buf(x, 1000.0)
    out = envelope_peak_pick(sig, 20, 5)
    win, hop = 20, 5.0
    for j in range(out.values.size):
        lo = max(0, int(round(j * hop - win / 2)))
        hi = min(x.size, max(lo + 1, int(round(j * hop + win / 2))))
        assert out.values[j] >= x[lo:hi].mean()


def _envelope_reference(x, rate, window_ms, hop_ms):
    """The peak-picked envelope as one Python loop over the frames."""
    win = int(round(rate * window_ms / 1000.0))
    hop = rate * hop_ms / 1000.0
    n_frames = int(np.floor((x.size - 1) / hop)) + 1
    half = win / 2.0
    out = np.empty(n_frames)
    for j in range(n_frames):
        center = j * hop
        lo = max(0, int(round(center - half)))
        hi = min(x.size, max(lo + 1, int(round(center + half))))
        out[j] = x[lo:hi].max()
    return out


@pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 32000, 44100, 48000])
@pytest.mark.parametrize("dur_s", [0.05, 0.3217, 1.0, 2.5003])
def test_envelope_matches_the_frame_loop_exactly(rate, dur_s):
    x = np.random.default_rng(rate).random(int(round(dur_s * rate)))
    for window_ms, hop_ms in ((20.0, 5.0), (25.0, 10.0), (7.3, 2.1)):
        out = envelope_peak_pick(buf(x, float(rate)), window_ms, hop_ms)
        assert np.array_equal(out.values, _envelope_reference(x, rate, window_ms, hop_ms))


def test_envelope_rejects_negative_input():
    with pytest.raises(ValueError):
        envelope_peak_pick(buf(sine(100, 0.1, 1000)), 20, 5)


def test_envelope_rejects_short_signal():
    with pytest.raises(ValueError):
        envelope_peak_pick(buf(np.ones(10), 1000.0), 20, 5)


def test_envelope_rejects_bad_hop():
    with pytest.raises(ValueError):
        envelope_peak_pick(buf(np.ones(100), 1000.0), 20, 25)


# ---- amdf_f0 ----


def test_amdf_silence_is_unvoiced():
    out = amdf_f0(buf(np.zeros(16000)))
    assert out.kind == F0_RAW
    assert out.rate == 100.0
    assert np.array_equal(out.values, np.zeros(out.values.size))


def test_amdf_sawtooth_200hz():
    t = np.arange(5 * 16000) / 16000
    sig = buf(0.9 * sawtooth(2 * np.pi * 200 * t))
    out = amdf_f0(sig)
    voiced = out.values[out.values > 0]
    ok = np.abs(voiced - 200.0) <= 2.0
    assert voiced.size / out.values.size >= 0.9
    assert np.all(ok)


def test_amdf_sine_100hz():
    sig = buf(sine(100, 2.0, 16000, amp=0.9))
    out = amdf_f0(sig)
    voiced = out.values[out.values > 0]
    assert voiced.size > 0
    assert np.all(np.abs(voiced - 100.0) <= 1.0)


def test_amdf_agrees_with_autocorr_oracle():
    t = np.arange(2 * 16000) / 16000
    x = 0.9 * sawtooth(2 * np.pi * 140 * t)
    out = amdf_f0(buf(x))
    oracle = autocorr_f0_oracle(x, 16000.0)
    assert oracle.size == out.values.size
    both = (out.values > 0) & (oracle > 0)
    assert both.sum() >= 0.8 * out.values.size
    assert np.all(np.abs(out.values[both] - oracle[both]) <= 3.0)


def test_amdf_voiced_values_within_range():
    rng = np.random.default_rng(3)
    x = np.clip(rng.normal(0, 0.3, 16000), -1, 1)
    out = amdf_f0(buf(x))
    voiced = out.values[out.values > 0]
    assert np.all((voiced >= 60.0) & (voiced <= 400.0))


def _amdf_matrix_reference(x, starts, n_frame, taus):
    """The AMDF matrix with fresh difference and prefix arrays per lag."""
    amdf = np.empty((starts.size, taus.size))
    for k, tau in enumerate(taus):
        d = np.abs(x[: x.size - tau] - x[tau:])
        c = np.concatenate(([0.0], np.cumsum(d)))
        amdf[:, k] = (c[starts + n_frame - tau] - c[starts]) / (n_frame - tau)
    return amdf


@pytest.mark.parametrize("rate", [8000, 11025, 16000])
def test_amdf_matrix_reuses_buffers_bit_identically(rate):
    x = harmonic_voice(lambda t: 150 + 20 * t, rate, 0.8, syllable_hz=5.0)
    n_frame, hop = int(round(rate * 0.04)), rate / 100
    starts = np.round(np.arange(int((x.size - n_frame) / hop) + 1) * hop).astype(np.int64)
    taus = np.arange(int(np.ceil(rate / 400)), int(rate / 60) + 1)
    assert np.array_equal(
        _amdf_matrix(x, starts, n_frame, taus),
        _amdf_matrix_reference(x, starts, n_frame, taus),
    )


def test_v_fit_finds_the_vertex_between_lags():
    row = (1.0 + 2.0 * np.abs(np.arange(20) - 10.3)).tolist()
    offset, floor = _v_fit(row, 10)
    assert offset == pytest.approx(0.3)
    assert floor == pytest.approx(1.0)
    assert _v_fit(row, 0) == (0.0, row[0])  # no neighbour: the lag itself
    assert _v_fit([1.0] * 5, 2) == (0.0, 1.0)  # flat: no slope to fit


@pytest.mark.parametrize("f0", [180.0, 220.0, 240.0])
def test_amdf_steady_harmonic_tone_at_8khz(f0):
    # the periods (44.4, 36.4, 33.3 samples) fall between lags; on the
    # integer lags alone a multiple of the period looked deeper than the
    # period itself and the walk stopped an octave or more low
    x = harmonic_voice(lambda t: np.full(t.size, f0), 8000, 2.0)
    out = amdf_f0(buf(x, rate=8000.0))
    voiced = out.values[out.values > 0]
    assert voiced.size >= 0.9 * out.values.size
    assert np.median(voiced) == pytest.approx(f0, rel=0.01)


def test_amdf_rejects_bad_params():
    sig = buf(sine(100, 1.0, 16000))
    with pytest.raises(ValueError):
        amdf_f0(sig, f0_min=400, f0_max=60)
    with pytest.raises(ValueError):
        amdf_f0(sig, f0_min=60, f0_max=400, frame_ms=20)  # under 2 periods
    with pytest.raises(ValueError):
        amdf_f0(buf(np.ones(100)), frame_ms=40)  # shorter than one frame


# ---- continuize_f0 ----


def test_continuize_interpolates_and_centers():
    raw = Track(np.array([0.0, 100.0, 0.0, 200.0, 0.0]), 100.0, F0_RAW)
    out = continuize_f0(raw)
    assert out.kind == F0_CONTINUOUS
    assert np.array_equal(out.values, [-50.0, -50.0, 0.0, 50.0, 50.0])


def test_continuize_constant_track_is_zero():
    raw = Track(np.full(10, 120.0), 100.0, F0_RAW)
    assert np.array_equal(continuize_f0(raw).values, np.zeros(10))


def test_continuize_single_voiced_frame():
    raw = Track(np.array([0.0, 0.0, 90.0, 0.0]), 100.0, F0_RAW)
    assert np.array_equal(continuize_f0(raw).values, np.zeros(4))


def test_continuize_requires_voiced_frames():
    raw = Track(np.zeros(5), 100.0, F0_RAW)
    with pytest.raises(ValueError):
        continuize_f0(raw)


def test_continuize_mean_is_zero():
    rng = np.random.default_rng(11)
    v = rng.uniform(80, 300, 200)
    v[rng.random(200) < 0.4] = 0.0
    v[0] = 150.0  # ensure at least one voiced frame
    out = continuize_f0(Track(v, 100.0, F0_RAW))
    assert abs(out.values.mean()) <= 1e-9


def test_continuize_rejects_wrong_kind():
    env = Track(np.ones(5), 200.0, ENVELOPE)
    with pytest.raises(ValueError):
        continuize_f0(env)


# ---- Track validation ----


def test_track_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Track(np.ones(3), 100.0, "bogus")


def test_track_rejects_negative_envelope():
    with pytest.raises(ValueError):
        Track(np.array([0.1, -0.1]), 100.0, ENVELOPE)


def test_track_rejects_uncentered_continuous():
    with pytest.raises(ValueError):
        Track(np.array([1.0, 2.0]), 100.0, F0_CONTINUOUS)


def test_track_times():
    tr = Track(np.ones(4), 200.0, ENVELOPE)
    assert np.array_equal(tr.times(), [0.0, 0.005, 0.01, 0.015])

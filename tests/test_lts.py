import numpy as np
import pytest

from rformant.audio_io import SignalBuffer, resample
from rformant.demodulation import (
    ENVELOPE,
    F0_CONTINUOUS,
    Track,
    envelope_peak_pick,
    rectify,
)
from rformant.lts import (
    AEMS,
    AMS,
    FEMS,
    LongTermSpectrum,
    long_term_spectrum,
    normalize_log_detrend,
)
from rformant.pipeline import analyze_signal

from conftest import am_tone, in_band, sine


def spectrum(series, domain, band=(1.0, 10.0)):
    return in_band(*long_term_spectrum(series, domain, band), band, domain)


def test_delta_f_is_one_over_duration():
    sig = SignalBuffer(np.abs(sine(5, 5.0, 200, amp=0.8)) + 0.1, 200.0, "x")
    spec = spectrum(sig, AMS, (0.0, 100.0))
    assert spec.delta_f == pytest.approx(0.2, abs=1e-12)
    assert spec.freqs[0] == pytest.approx(0.2, abs=1e-12)  # no 0 Hz bin, even in band
    assert spec.freqs[-1] == pytest.approx(100.0, abs=1e-9)


def test_constant_series_has_zero_spectrum():
    sig = SignalBuffer(np.full(1000, 0.5), 200.0, "c")
    _, magnitude = long_term_spectrum(sig, AMS, (0.0, 100.0))
    assert np.all(magnitude < 1e-9)


def test_sine_track_argmax():
    x = sine(3, 10.0, 100)
    tr = Track(x - x.mean(), 100.0, F0_CONTINUOUS)
    freqs, magnitude = long_term_spectrum(tr, FEMS, (0.0, 50.0))
    assert abs(freqs[np.argmax(magnitude)] - 3.0) <= 0.1


def test_short_series_rejected():
    sig = SignalBuffer(np.full(100, 0.5), 200.0, "s")
    with pytest.raises(ValueError):
        long_term_spectrum(sig, AMS, (1.0, 10.0))


def test_under_three_seconds_warns():
    # the spectrum itself is plain; the pipeline notes the coarse resolution
    sig = SignalBuffer(np.abs(sine(5, 2.0, 200, amp=0.8)) + 0.1, 200.0, "w")
    assert spectrum(sig, AMS).delta_f == pytest.approx(0.5)
    notes = analyze_signal(SignalBuffer(am_tone(220.0, 4.0, 2.0, 8000), 8000.0, "w")).notes
    assert "AMS: series of 2.000 s is under 3 s; low-frequency resolution will be coarse" in notes


def test_domain_series_pairing_enforced():
    sig = SignalBuffer(np.full(1000, 0.5), 200.0, "x")
    env = Track(np.full(1000, 0.5), 200.0, ENVELOPE)
    cont = Track(np.zeros(1000), 100.0, F0_CONTINUOUS)
    with pytest.raises(TypeError):
        long_term_spectrum(env, AMS, (1.0, 10.0))
    with pytest.raises(TypeError):
        long_term_spectrum(sig, AEMS, (1.0, 10.0))
    with pytest.raises(ValueError):
        long_term_spectrum(cont, AEMS, (1.0, 10.0))
    with pytest.raises(ValueError):
        long_term_spectrum(SignalBuffer(sine(5, 5.0, 200), 200.0, "n"), AMS, (1.0, 10.0))
    with pytest.raises(ValueError):
        long_term_spectrum(sig, "XYZ", (1.0, 10.0))


def test_detrend_exact_line_gives_zero_residual():
    f = np.linspace(1.0, 10.0, 46)
    out = in_band(f, 10.0 ** (2 * f + 1))
    assert np.all(np.abs(out.residual) < 1e-9)
    assert out.band == (1.0, 10.0)


def test_residual_mean_is_zero():
    rng = np.random.default_rng(5)
    out = spectrum(SignalBuffer(0.8 * rng.random(1000) + 0.1, 200.0, "r"), AMS)
    assert abs(out.residual.mean()) < 1e-9
    assert np.all(out.freqs >= 1.0) and np.all(out.freqs <= 10.0)


def test_detrend_finds_bump_on_decaying_spectrum():
    f = np.arange(5, 51) * 0.2
    mag = (1.0 / f) * (1.0 + 5.0 * np.exp(-0.5 * ((f - 4.0) / 0.3) ** 2))
    out = in_band(f, mag)
    peak = out.freqs[np.argmax(out.residual)]
    assert abs(peak - 4.0) <= 0.2


def test_detrend_is_gain_invariant():
    rng = np.random.default_rng(9)
    f = np.linspace(1.0, 10.0, 50)
    mag = rng.random(50) + 0.5
    r1 = normalize_log_detrend(f, mag)
    r2 = normalize_log_detrend(f, 7.3 * mag)
    assert np.max(np.abs(r1 - r2)) < 1e-9


def test_detrend_narrow_band_rejected():
    sig = SignalBuffer(np.abs(sine(5, 5.0, 200, amp=0.8)) + 0.1, 200.0, "n")
    with pytest.raises(ValueError, match="fewer than 3"):
        long_term_spectrum(sig, AMS, (4.0, 4.1))
    with pytest.raises(ValueError, match="lo < hi"):
        long_term_spectrum(sig, AMS, (5.0, 2.0))


def test_parseval_single_sided_bound():
    rng = np.random.default_rng(2)
    x = rng.random(2000) * 0.5 + 0.2
    sig = SignalBuffer(x, 200.0, "p")
    _, magnitude = long_term_spectrum(sig, AMS, (0.0, 100.0))
    assert np.sum(magnitude**2) <= (x.size / 2) * np.sum(x * x)


def test_spectrum_validation():
    def flat_spectrum(freqs, magnitude, residual=None, band=(1.0, 10.0)):
        residual = np.zeros(len(freqs)) if residual is None else residual
        return LongTermSpectrum(AMS, freqs, magnitude, residual, band)

    f = np.linspace(1.0, 10.0, 10)
    flat_spectrum(f, np.ones(10))
    with pytest.raises(ValueError):
        flat_spectrum(f, np.ones(9))
    with pytest.raises(ValueError):
        flat_spectrum(f, np.ones(10), np.zeros(9))
    with pytest.raises(ValueError):
        flat_spectrum(f[::-1], np.ones(10))
    with pytest.raises(ValueError):
        flat_spectrum(np.array([1.0, 2.0, 4.0, 8.0]), np.ones(4))
    with pytest.raises(ValueError):
        flat_spectrum(f, -np.ones(10))
    with pytest.raises(ValueError):
        flat_spectrum(np.ones(0), np.ones(0))
    with pytest.raises(ValueError, match="in band"):
        flat_spectrum(f, np.ones(10), band=(2.0, 10.0))
    with pytest.raises(ValueError, match="not detrended"):
        flat_spectrum(f, np.ones(10), f - 1.0)


def test_am_tone_envelope_spectrum_peaks_at_modulation_rate():
    # 440 Hz carrier fully modulated at 4 Hz: both the rectified signal and
    # the picked envelope put their strongest rhythm line at 4 Hz
    x = am_tone(440.0, 4.0, 5.0, 16000)
    sig = SignalBuffer(x, 16000.0, "am")
    ams_in = resample(rectify(sig), 200.0)
    spec = spectrum(ams_in, AMS)
    assert abs(spec.freqs[np.argmax(spec.residual)] - 4.0) <= 0.25

    env = envelope_peak_pick(rectify(sig), 20, 5)
    espec = spectrum(env, AEMS)
    assert abs(espec.freqs[np.argmax(espec.residual)] - 4.0) <= 0.25
    assert abs(espec.freqs[np.argmax(espec.magnitude)] - 4.0) <= 0.25

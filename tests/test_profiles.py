import numpy as np
import pytest

from rformant.audio_io import SignalBuffer, resample
from rformant.demodulation import envelope_peak_pick, rectify
from rformant.lts import (
    AEMS,
    AMS,
    LongTermSpectrum,
    long_term_spectrum,
    normalize_log_detrend,
)
from rformant.pipeline import profile
from rformant.profiles import RFormantProfile, rhythm_bars, top_n_frequencies, weighted_bins

from conftest import am_tone


def spectrum_from_log_shape(freqs, log_shape, band=None):
    """Spectrum whose residual ordering follows ``log_shape`` minus its line fit."""
    raw = LongTermSpectrum(domain=AMS, freqs=freqs, magnitude=10.0 ** np.asarray(log_shape))
    if band is None:
        band = (freqs[0], freqs[-1])
    return normalize_log_detrend(raw, band)


def test_top_n_rank_order():
    spec = spectrum_from_log_shape(
        np.array([2.0, 4.2, 6.4, 8.6]), [0.1, 0.9, 0.7, 0.4]
    )
    # residuals after detrend keep the 0.9 then 0.7 samples on top
    peaks = top_n_frequencies(spec, 2)
    assert [f for f, _ in peaks] == [4.2, 6.4]
    assert peaks[0][1] >= peaks[1][1]


def test_top_zero_is_empty():
    spec = spectrum_from_log_shape(np.array([1.0, 2.0, 3.0]), [0.1, 0.5, 0.2])
    assert top_n_frequencies(spec, 0) == ()


def test_top_n_exhausting_band_returns_everything():
    spec = spectrum_from_log_shape(np.arange(1.0, 6.0), [0.3, 0.1, 0.4, 0.2, 0.5])
    peaks = top_n_frequencies(spec, 5)
    assert sorted(f for f, _ in peaks) == [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(ValueError):
        top_n_frequencies(spec, 6)


def test_top_n_requires_residual():
    raw = LongTermSpectrum(domain=AMS, freqs=np.arange(1.0, 6.0), magnitude=np.ones(5))
    with pytest.raises(ValueError):
        top_n_frequencies(raw, 2)


def test_ties_broken_by_ascending_frequency():
    r = np.array([0.6, -0.4, -0.4, -0.4, 0.6])  # zero line fit by symmetry
    spec = LongTermSpectrum(
        domain=AMS,
        freqs=np.arange(1.0, 6.0),
        magnitude=np.ones(5),
        residual=r,
        band=(1.0, 5.0),
    )
    peaks = top_n_frequencies(spec, 2)
    assert peaks == ((1.0, 1.0), (5.0, 1.0))
    # the tied -0.4 samples also resolve low-frequency-first
    assert top_n_frequencies(spec, 3)[2][0] == 2.0


def test_weights_are_min_shifted_and_nonnegative():
    spec = spectrum_from_log_shape(np.arange(1.0, 6.0), [0.3, 0.1, 0.4, 0.2, 0.5])
    peaks = top_n_frequencies(spec, 5)
    weights = [w for _, w in peaks]
    assert min(weights) == 0.0
    assert all(w >= 0 for w in weights)


def test_top_n_monotone_superset():
    rng = np.random.default_rng(21)
    spec = spectrum_from_log_shape(np.arange(1.0, 11.0), rng.random(10))
    small = {f for f, _ in top_n_frequencies(spec, 3)}
    big = {f for f, _ in top_n_frequencies(spec, 6)}
    assert small <= big


def test_rhythm_bars_ascending():
    spec = spectrum_from_log_shape(
        np.array([2.0, 4.2, 6.4, 8.6]), [0.1, 0.9, 0.7, 0.4]
    )
    assert rhythm_bars(spec, 2) == [4.2, 6.4]
    # a short clip's band may hold fewer samples than the default 16 bars
    assert rhythm_bars(spec) == [2.0, 4.2, 6.4, 8.6]


def test_weighted_bins_hand_example():
    peaks = [(4.2, 0.9), (4.5, 0.8), (7.1, 0.3)]
    bins = weighted_bins(peaks, (1.0, 11.0), 10)
    expected = np.zeros(10)
    expected[3] = 1.7 / 2.0
    expected[6] = 0.3 / 2.0
    assert np.allclose(bins, expected, atol=1e-12)
    assert abs(bins.sum() - 1.0) < 1e-9


def test_weighted_bins_single_peak():
    bins = weighted_bins([(3.3, 0.42)], (1.0, 11.0), 10)
    assert bins[2] == 1.0
    assert bins.sum() == 1.0


def test_weighted_bins_top_edge_clamps():
    bins = weighted_bins([(11.0, 1.0)], (1.0, 11.0), 10)
    assert bins[9] == 1.0


def test_weighted_bins_empty_and_errors():
    assert np.array_equal(weighted_bins([], (1.0, 11.0), 10), np.zeros(10))
    with pytest.raises(ValueError):
        weighted_bins([(0.5, 1.0)], (1.0, 11.0), 10)
    with pytest.raises(ValueError):
        weighted_bins([], (5.0, 5.0), 10)
    with pytest.raises(ValueError):
        weighted_bins([], (1.0, 11.0), 0)


def test_profile_composition_and_zero_peaks():
    # curved shape: a straight line detrends to dust and zeroes the bins
    spec = spectrum_from_log_shape(np.arange(1.0, 11.0), np.linspace(0, 1, 10) ** 2)
    prof = profile(spec, n=0, n_bins=10)
    assert prof.peaks == ()
    assert np.array_equal(prof.bins, np.zeros(10))
    prof6 = profile(spec, n=6, n_bins=10)
    assert len(prof6.peaks) == 6
    assert abs(prof6.bins.sum() - 1.0) < 1e-9
    assert prof6.band == spec.band
    assert prof6.domain == AMS


def test_identical_spectra_identical_profiles():
    rng = np.random.default_rng(3)
    shape = rng.random(12)
    a = profile(spectrum_from_log_shape(np.arange(1.0, 13.0), shape))
    b = profile(spectrum_from_log_shape(np.arange(1.0, 13.0), shape))
    assert a.peaks == b.peaks
    assert np.array_equal(a.bins, b.bins)


def test_profile_gain_invariant():
    rng = np.random.default_rng(17)
    f = np.arange(1.0, 11.0)
    mag = rng.random(10) + 0.5
    a = profile(normalize_log_detrend(LongTermSpectrum(AMS, f, mag), (1, 10)))
    b = profile(normalize_log_detrend(LongTermSpectrum(AMS, f, 13.7 * mag), (1, 10)))
    assert [pf for pf, _ in a.peaks] == [pf for pf, _ in b.peaks]
    assert np.max(np.abs(a.bins - b.bins)) < 1e-9


def test_am_tone_top_peak_at_modulation_rate():
    x = am_tone(440.0, 4.0, 5.0, 16000)
    sig = SignalBuffer(x, 16000.0, "am")
    env = envelope_peak_pick(rectify(sig), 20, 5)
    spec = normalize_log_detrend(long_term_spectrum(env, AEMS), (1.0, 10.0))
    peaks = top_n_frequencies(spec, 1)
    assert abs(peaks[0][0] - 4.0) <= 0.25
    prof = profile(spec)
    # dominant histogram bin covers the 4 Hz region: band (1,10), 10 bins
    assert np.argmax(prof.bins) == int((4.0 - 1.0) / 0.9)


def test_profile_validation():
    with pytest.raises(ValueError):
        RFormantProfile("u", AMS, ((12.0, 1.0),), np.zeros(10), (1.0, 10.0), 10)
    with pytest.raises(ValueError):
        RFormantProfile(
            "u", AMS, ((2.0, 0.5), (3.0, 0.9)), np.zeros(10), (1.0, 10.0), 10
        )
    with pytest.raises(ValueError):
        bad = np.full(10, 0.2)
        RFormantProfile("u", AMS, (), bad, (1.0, 10.0), 10)
    with pytest.raises(ValueError):
        RFormantProfile("u", "Q", (), np.zeros(10), (1.0, 10.0), 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profile_rejects_non_finite_values(bad):
    # NaN passes "bins < 0" and "|sum - 1| > 1e-9" unnoticed, so it needs
    # its own check
    bins = np.zeros(10)
    bins[3] = bad
    with pytest.raises(ValueError, match="finite"):
        RFormantProfile("u", AMS, (), bins, (1.0, 10.0), 10)
    with pytest.raises(ValueError, match="finite"):
        RFormantProfile("u", AMS, ((2.0, bad),), np.eye(10)[0], (1.0, 10.0), 10)
    with pytest.raises(ValueError):
        RFormantProfile("u", AMS, (), np.eye(10)[0], (1.0, bad), 10)

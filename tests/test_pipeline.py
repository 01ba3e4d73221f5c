import json
import warnings

import numpy as np
import pytest

from conftest import am_tone, harmonic_voice, write_wav
from rformant import pipeline, report
from rformant.audio_io import SignalBuffer, load_wav
from rformant.config import AnalysisConfig
from rformant.lts import AEMS, AMS, DOMAINS, FEMS
from rformant.pipeline import PAIRS, analyze_clip, analyze_signal

RATE = 16000


@pytest.fixture(scope="module")
def am_report():
    x = am_tone(220.0, 4.0, 5.0, RATE)
    sig = SignalBuffer(samples=x, rate=RATE, label="am")
    return analyze_signal(sig)


def test_all_domains_present_for_modulated_tone(am_report):
    assert set(am_report.spectra) == set(DOMAINS)
    assert set(am_report.profiles) == set(DOMAINS)
    assert not am_report.fems_absent


def test_am_rate_recovered_in_both_amplitude_domains(am_report):
    for domain in (AMS, AEMS):
        top_f, top_w = am_report.profiles[domain].peaks[0]
        assert top_f == pytest.approx(4.0, abs=0.25)
        assert top_w > 0


def test_pearson_covers_all_pairs(am_report):
    assert set(am_report.pearson) == set(PAIRS)
    for pair, r in am_report.pearson.items():
        assert r is not None and -1.0 <= r <= 1.0, pair


def test_bars_are_ascending_band_frequencies(am_report):
    lo, hi = am_report.band
    for domain in DOMAINS:
        bars = am_report.bars[domain]
        assert len(bars) == 16
        assert bars == sorted(bars)
        assert all(lo <= b <= hi for b in bars)


def test_report_metadata(am_report):
    assert am_report.label == "am"
    assert am_report.duration_s == pytest.approx(5.0)
    assert am_report.band == (1.0, 10.0)
    assert am_report.n_bins == 10
    assert am_report.signal is not None
    assert am_report.envelope is not None
    assert am_report.f0_track is not None


def test_json_dict_shape(am_report):
    d = json.loads(report.to_json(am_report))
    assert d["schema"] == 1
    assert d["label"] == "am"
    assert d["band"] == [1.0, 10.0]
    assert set(d["domains"]) == set(DOMAINS)
    for domain in DOMAINS:
        dom = d["domains"][domain]
        assert dom["present"] is True
        # FEMS is slightly coarser: F0 framing shaves the last partial frame
        assert dom["delta_f"] == pytest.approx(0.2, abs=0.005)
        assert len(dom["peaks"]) == 6
        assert len(dom["bars"]) == 16
        assert len(dom["bins"]) == 10
    assert set(d["pearson"]) == set(PAIRS)


def test_silence_drops_fems_and_correlations():
    sig = SignalBuffer(samples=np.zeros(5 * RATE), rate=RATE, label="quiet")
    rep = analyze_signal(sig)
    assert rep.fems_absent
    assert FEMS not in rep.spectra
    assert np.all(rep.profiles[AMS].bins == 0.0)
    assert rep.pearson["AMS:FEMS"] is None
    assert rep.pearson["AEMS:FEMS"] is None
    # both amplitude-domain bin vectors are flat zero: no variance to correlate
    assert rep.pearson["AMS:AEMS"] is None
    d = json.loads(report.to_json(rep))
    assert d["domains"][FEMS] == {"present": False}


def test_fm_branch_errors_are_not_swallowed(monkeypatch):
    def broken(track):
        raise ValueError("unrelated failure")

    monkeypatch.setattr(pipeline, "continuize_f0", broken)
    sig = SignalBuffer(samples=am_tone(220.0, 4.0, 5.0, RATE), rate=RATE, label="am")
    with pytest.raises(ValueError, match="unrelated failure"):
        analyze_signal(sig)


def _f0_rates(monkeypatch, rate, config=None):
    """Sample rates of the signals handed to amdf_f0 for one analysis."""
    seen, track_f0 = [], pipeline.amdf_f0

    def spy(sig, **kwargs):
        seen.append(sig.rate)
        return track_f0(sig, **kwargs)

    monkeypatch.setattr(pipeline, "amdf_f0", spy)
    x = am_tone(220.0, 4.0, 3.5, rate)
    analyze_signal(SignalBuffer(samples=x, rate=float(rate), label="am"), config)
    return seen


@pytest.mark.parametrize(
    "rate, f0_rate",
    [(8000, 8000), (16000, 8000), (22050, 8000), (44100, 8000), (48000, 8000)],
)
def test_f0_is_tracked_on_a_decimated_copy(monkeypatch, rate, f0_rate):
    assert _f0_rates(monkeypatch, rate) == [f0_rate]


def test_f0_copy_rate_follows_f0_max(monkeypatch):
    # 20 samples per period of f0_max
    assert _f0_rates(monkeypatch, 16000, AnalysisConfig(f0_max_hz=300.0)) == [6000]


# F0 centred where the period is 70.5 samples at 16 kHz: twice the period
# then falls on a whole lag and, without the valley fit, out-scored the
# period itself in the octave walk
_VIBRATO_BASE_HZ = 16000 / 70.5


def _vibrato(t):
    return _VIBRATO_BASE_HZ * (1 + 0.03 * np.sin(2 * np.pi * 3.0 * t))


@pytest.mark.parametrize("rate", [16000, 22050, 44100, 48000])
def test_f0_of_a_vibrato_voice_is_rate_invariant(rate):
    x = harmonic_voice(_vibrato, rate, 3.0, syllable_hz=6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 3 s is under the coarse-resolution warning
        track = analyze_signal(SignalBuffer(samples=x, rate=float(rate), label="v")).f0_track
    truth = _vibrato(0.02 + track.times())  # contour at the frame centres
    voiced = track.values > 0
    assert voiced.mean() >= 0.8
    assert np.median(track.values[voiced]) == pytest.approx(np.median(truth[voiced]), rel=0.01)
    assert np.max(np.abs(track.values[voiced] - truth[voiced])) <= 20.0


def test_voicing_of_a_vibrato_voice_is_rate_invariant():
    # each rate is tracked on the same ~4 kHz band, so the noise floor the
    # voicing test sees does not depend on the source rate
    fractions = []
    for rate in (16000, 22050, 44100, 48000):
        x = harmonic_voice(_vibrato, rate, 3.0, syllable_hz=6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 3 s is under the coarse-resolution warning
            rep = analyze_signal(SignalBuffer(samples=x, rate=float(rate), label="v"))
        fractions.append(float(np.mean(rep.f0_track.values > 0)))
    assert max(fractions) - min(fractions) <= 0.02, fractions


def _ams_4hz_residual(rate):
    rng = np.random.default_rng(0)
    t = np.arange(5 * rate) / rate
    carrier = 0.5 * np.sin(2 * np.pi * 220 * t) + 0.5 * np.clip(rng.standard_normal(t.size) / 3, -1, 1)
    x = 0.4 * (1 + np.sin(2 * np.pi * 4.0 * t)) * carrier
    spec = analyze_signal(SignalBuffer(samples=x, rate=float(rate), label="am")).spectra[AMS]
    return spec.residual[np.argmin(np.abs(spec.freqs - 4.0))]


def test_ams_peak_is_rate_invariant():
    # 44.1 and 22.05 kHz reach 200 Hz by a fractional ratio; block means
    # first keep the rectified signal's broadband energy from aliasing down
    reference = _ams_4hz_residual(48000)
    for rate in (22050, 44100):
        assert _ams_4hz_residual(rate) == pytest.approx(reference, abs=0.3)


def test_config_controls_peak_and_bin_counts():
    x = am_tone(220.0, 4.0, 5.0, RATE)
    sig = SignalBuffer(samples=x, rate=RATE, label="am")
    cfg = AnalysisConfig(n_peaks=3, n_bins=5, band_lo_hz=2.0, band_hi_hz=6.0)
    rep = analyze_signal(sig, cfg)
    assert rep.band == (2.0, 6.0)
    assert rep.n_bins == 5
    for domain in DOMAINS:
        assert len(rep.profiles[domain].peaks) == 3
        assert rep.profiles[domain].bins.size == 5
        for f, _ in rep.profiles[domain].peaks:
            assert 2.0 <= f <= 6.0


def test_too_short_signal_rejected():
    sig = SignalBuffer(samples=np.zeros(RATE // 2), rate=RATE, label="blip")
    with pytest.raises(ValueError):
        analyze_signal(sig)


def test_clip_path_matches_in_memory_analysis(tmp_path):
    x = am_tone(220.0, 4.0, 5.0, RATE)
    path = tmp_path / "am.wav"
    write_wav(path, RATE, x * 0.9)
    rep_file = analyze_clip(path)
    rep_mem = analyze_signal(load_wav(path))
    assert rep_file.label == "am"
    for domain in DOMAINS:
        np.testing.assert_array_equal(
            rep_file.profiles[domain].bins, rep_mem.profiles[domain].bins
        )
    assert rep_file.pearson == rep_mem.pearson


def test_trim_applies_when_loading(tmp_path):
    x = am_tone(220.0, 4.0, 8.0, RATE)
    path = tmp_path / "long.wav"
    write_wav(path, RATE, x * 0.9)
    rep = analyze_clip(path)
    assert rep.duration_s == pytest.approx(5.0)
    rep2 = analyze_clip(path, AnalysisConfig(trim_s=7.0))
    assert rep2.duration_s == pytest.approx(7.0)


def test_short_clip_warns_but_completes():
    x = am_tone(220.0, 4.0, 2.0, RATE)
    sig = SignalBuffer(samples=x, rate=RATE, label="short")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = analyze_signal(sig)
    assert any(issubclass(w.category, UserWarning) for w in caught)
    assert AMS in rep.profiles

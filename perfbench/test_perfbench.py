"""Tests of the benchmark's own parts: corpus, checker and tracer.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest
from scipy.io import wavfile

import checks
import corpus
import run
import spans

rformant = run.import_checkout()

# generator seed of an 8 kHz, 235 Hz voice whose median F0 the tracker
# puts 5.7% low (222.2 Hz against 235.6 Hz)
FAILING_8K_SEED = 38


def _render(tmp_path, seed, name):
    specs = corpus.lo_rate_specs(4)  # one clip of every format
    return corpus.write_corpus(tmp_path / name, specs, seed, "c")


def test_same_seed_gives_identical_wavs_and_another_seed_differs(tmp_path):
    first = _render(tmp_path, 7, "a")
    again = _render(tmp_path, 7, "b")
    other = _render(tmp_path, 8, "c")
    assert {t.fmt for t in first} == set(corpus.FORMATS)
    for a, b, c in zip(first, again, other):
        assert a.path.read_bytes() == b.path.read_bytes()
        assert a.path.read_bytes() != c.path.read_bytes()
        assert (a.syllable_hz, a.f0_median_hz) == (b.syllable_hz, b.f0_median_hz)


def test_every_format_loads_at_its_rate_and_length(tmp_path):
    for t in _render(tmp_path, 3, "a"):
        sig = rformant.load_wav(t.path)
        assert sig.rate == t.rate
        assert sig.samples.size == round(t.dur_s * t.rate)
        assert 0.4 < np.max(np.abs(sig.samples)) <= 0.9


def _report(peak_hz, delta_f=0.2):
    dom = {"present": True, "delta_f": delta_f, "peaks": [[peak_hz, 2.0], [8.0, 1.0]]}
    return {"label": "x", "domains": {"AMS": dict(dom), "AEMS": dict(dom)}}


def test_checker_accepts_peak_within_one_bin_and_rejects_a_1hz_shift():
    assert checks.check_peaks(_report(4.2), 4.25) == []
    failures = checks.check_peaks(_report(5.2), 4.25)
    assert len(failures) == 2 and all(f.startswith("peak:x:") for f in failures)


def test_checker_rejects_truncated_or_incomplete_newick():
    labels = ["a", "b", "c"]
    full = "((a:0.1,b:0.1):0.2,c:0.3);"
    assert checks.check_newick(full, labels) == []
    assert checks.check_newick(full[:-6], labels) == ["newick:incomplete"]
    assert checks.check_newick("((a:0.1,b:0.1):0.2,a:0.3);", labels) != []


def test_checker_wants_three_mantel_rows_with_p_in_range():
    head = "pair,r,p,significance\n"
    rows = "".join(f"{p},0.1,{v},ns\n" for p, v in zip(checks.MANTEL_PAIRS, (0.5, 1.0, 0.0001)))
    assert checks.check_mantel_csv(head + rows) == []
    assert checks.check_mantel_csv(head + rows.replace("0.0001", "0.0")) != []
    assert checks.check_mantel_csv(head + rows.split("\n", 1)[1]) != []


def test_tracer_records_layers_and_restores_every_attribute(tmp_path):
    import rformant.cli
    import rformant.pipeline

    targets = spans.TARGETS + (("rformant.pipeline", "no_such_stage", "x.y", None),)
    modules = {"rformant.pipeline": rformant.pipeline, "rformant.cli": rformant.cli}
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        assert rformant.pipeline.amdf_f0 is not before["rformant.pipeline", "amdf_f0"]
        truth = _render(tmp_path, 1, "a")[0]
        rformant.cli.analyze_clip(truth.path)
    finally:
        tracer.restore()
    for (m, a), original in before.items():
        assert getattr(modules[m], a) is original
    assert tracer.absent == ["rformant.pipeline.no_such_stage"]
    seconds, calls, counts = spans.layer_totals([tracer.spans])
    assert calls["pipeline.analyze_clip"] == calls["demodulation.amdf_f0"] == 1
    assert calls["lts.spectrum"] == 6  # transform and detrend per domain
    assert all(v >= 0 for v in seconds.values())
    root = tracer.spans[0]
    assert root["name"] == "pipeline.analyze_clip"
    assert all(s["root"] == root["id"] for s in tracer.spans)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 41)) == (75.0, 30)
    assert run.tail(range(1, 101)) == (90.0, 90)


def test_interleave_spreads_each_phase_over_the_run():
    order = run.interleave({"compare": 1, "cluster": 7, "setup": 3})
    assert sorted(order) == sorted(["compare"] + ["cluster"] * 7 + ["setup"] * 3)
    assert order.index("compare") == len(order) // 2
    setups = [i for i, name in enumerate(order) if name == "setup"]
    assert setups[0] <= 1 and setups[-1] >= len(order) - 2


@pytest.mark.xfail(strict=True, reason="stereo integer PCM is clipped to +-1 after mixdown")
def test_stereo_int16_keeps_its_level(tmp_path):
    # load_wav averages the channels into float64 before it scales integer
    # samples, so the int16 scaling is skipped and the mix is clipped; the
    # corpus writes stereo as float32 for this reason
    x = 0.5 * np.sin(2 * np.pi * 200 * np.arange(8000) / 8000)
    path = tmp_path / "stereo.wav"
    wavfile.write(str(path), 8000, np.round(np.stack([x, x], axis=1) * 32767).astype(np.int16))
    assert np.max(np.abs(rformant.load_wav(path).samples)) == pytest.approx(0.5, abs=1e-3)


@pytest.mark.xfail(strict=True, reason="AMDF F0 at 8 kHz is biased low above ~170 Hz")
def test_f0_at_8khz_within_5_percent_for_a_high_voice():
    rng = np.random.default_rng(FAILING_8K_SEED)
    spec = corpus.ClipSpec(8000, "int16", 3.2)
    x, f0_median = corpus.synthesize(rng, spec, 2.6, 235.0)
    rep = rformant.analyze_signal(rformant.SignalBuffer(x, 8000.0, "hi_voice"))
    assert checks.check_f0("hi_voice", rep.f0_track.values, f0_median) == []

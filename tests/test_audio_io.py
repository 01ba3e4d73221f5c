import numpy as np
import pytest

from rformant.audio_io import AudioFileError, SignalBuffer, load_wav, resample

from conftest import sine, write_wav, write_wav24, write_wav_format


def test_load_int16_roundtrip(tmp_path):
    x = sine(440, 0.5, 8000, amp=0.5)
    p = tmp_path / "tone.wav"
    write_wav(p, 8000, x)
    sig = load_wav(p)
    assert sig.rate == 8000.0
    assert sig.label == "tone"
    assert sig.samples.size == x.size
    assert np.max(np.abs(sig.samples - x)) < 2 / 2 ** 15


def test_load_float32_is_exact(tmp_path):
    x = np.array([0.0, 0.25, -0.5, 1.0, -1.0], dtype=np.float32)
    p = tmp_path / "f.wav"
    write_wav(p, 100, x, dtype="float32")
    sig = load_wav(p)
    assert np.array_equal(sig.samples, x.astype(np.float64))


def test_load_float32_clips_out_of_range(tmp_path):
    from scipy.io import wavfile

    p = tmp_path / "hot.wav"
    wavfile.write(str(p), 100, np.array([1.5, -2.0, 0.5], dtype=np.float32))
    sig = load_wav(p)
    assert np.array_equal(sig.samples, [1.0, -1.0, 0.5])


def test_load_uint8_mapping(tmp_path):
    from scipy.io import wavfile

    p = tmp_path / "u8.wav"
    wavfile.write(str(p), 100, np.array([0, 128, 255], dtype=np.uint8))
    sig = load_wav(p)
    assert np.array_equal(sig.samples, [-1.0, 0.0, 127 / 128])


def test_load_24bit(tmp_path):
    x = sine(220, 0.25, 8000, amp=0.8)
    p = tmp_path / "deep.wav"
    write_wav24(p, 8000, x)
    sig = load_wav(p)
    assert sig.samples.size == x.size
    # quantized to 24 bits, so agreement to ~1e-7
    assert np.max(np.abs(sig.samples - x)) < 2 / 2 ** 23
    assert np.max(np.abs(sig.samples)) <= 1.0


def test_stereo_mixdown(tmp_path):
    from scipy.io import wavfile

    left = np.round(sine(100, 0.1, 4000, amp=0.5) * 2 ** 14).astype(np.int16)
    right = -left
    p = tmp_path / "st.wav"
    wavfile.write(str(p), 4000, np.stack([left, right], axis=1))
    sig = load_wav(p)
    assert np.array_equal(sig.samples, np.zeros(left.size))


def test_stereo_int16_keeps_its_level(tmp_path):
    from scipy.io import wavfile

    x = np.round(sine(200, 0.5, 8000, amp=0.5) * 2 ** 15).astype(np.int16)
    p = tmp_path / "st.wav"
    wavfile.write(str(p), 8000, np.stack([x, x], axis=1))
    assert np.max(np.abs(load_wav(p).samples)) == pytest.approx(0.5, abs=1e-4)


def test_trim_keeps_head(tmp_path):
    p = tmp_path / "long.wav"
    write_wav(p, 1000, np.ones(2000) * 0.5)
    sig = load_wav(p, trim_s=1.0)
    assert sig.samples.size == 1000
    assert sig.duration == 1.0


def test_trim_longer_than_file(tmp_path):
    p = tmp_path / "short.wav"
    write_wav(p, 1000, np.ones(300) * 0.5)
    sig = load_wav(p, trim_s=5.0)
    assert sig.samples.size == 300


def test_trim_nonpositive_rejected(tmp_path):
    p = tmp_path / "x.wav"
    write_wav(p, 1000, np.ones(100) * 0.5)
    with pytest.raises(ValueError):
        load_wav(p, trim_s=0.0)


def test_truncated_file_raises(tmp_path):
    p = tmp_path / "cut.wav"
    write_wav(p, 8000, sine(440, 0.5, 8000))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(AudioFileError):
        load_wav(p)


def test_empty_audio_raises(tmp_path):
    from scipy.io import wavfile

    p = tmp_path / "empty.wav"
    wavfile.write(str(p), 8000, np.zeros(0, dtype=np.int16))
    with pytest.raises(AudioFileError, match="zero-length"):
        load_wav(p)


def test_mulaw_raises(tmp_path):
    p = tmp_path / "ulaw.wav"
    write_wav_format(p, 8000, fmt_tag=7, bits=8, payload=bytes(100))
    with pytest.raises(AudioFileError):
        load_wav(p)


def test_missing_file_raises(tmp_path):
    with pytest.raises(AudioFileError):
        load_wav(tmp_path / "nope.wav")


def test_resample_block_mean():
    x = np.arange(20, dtype=np.float64) / 20
    sig = SignalBuffer(x, 1000.0, "t")
    out = resample(sig, 200.0)
    assert out.rate == 200.0
    assert np.array_equal(out.samples, x.reshape(4, 5).mean(axis=1))


def test_resample_preserves_constant():
    sig = SignalBuffer(np.full(441, 0.25), 44100.0, "c")
    out = resample(sig, 200.0)  # non-integer ratio, interpolation path
    assert out.rate == 200.0
    assert np.allclose(out.samples, 0.25)
    assert out.samples.size == round(441 * 200 / 44100)


@pytest.mark.parametrize("rate", [22050.0, 44100.0])
def test_resample_fractional_ratio_averages_blocks_first(rate):
    # a tone at the Nyquist rate averages to zero over each (even) block;
    # interpolating the raw samples would alias it straight through
    x = 0.5 * (-1.0) ** np.arange(int(rate))
    out = resample(SignalBuffer(x, rate, "n"), 200.0)
    assert out.samples.size == 200
    assert np.max(np.abs(out.samples)) < 1e-12


def test_resample_same_rate_is_identity():
    sig = SignalBuffer(np.ones(10) * 0.5, 200.0, "s")
    assert resample(sig, 200.0) is sig


def test_resample_keeps_label():
    sig = SignalBuffer(np.ones(100) * 0.5, 1000.0, "keep")
    assert resample(sig, 200.0).label == "keep"


def test_buffer_rejects_bad_input():
    with pytest.raises(ValueError):
        SignalBuffer(np.zeros(0), 100.0)
    with pytest.raises(ValueError):
        SignalBuffer(np.ones(5), 0.0)
    with pytest.raises(ValueError):
        SignalBuffer(np.array([0.0, 1.5]), 100.0)
    with pytest.raises(ValueError):
        SignalBuffer(np.ones((2, 2)), 100.0)


def test_buffer_duration():
    sig = SignalBuffer(np.zeros(150), 300.0)
    assert sig.duration == 0.5

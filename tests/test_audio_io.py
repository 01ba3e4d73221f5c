import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.io.wavfile import WavFileWarning

from rformant.audio_io import AudioFileError, SignalBuffer, load_wav, resample

from conftest import sine, write_wav, write_wav24, write_wav_format


def reference_load_wav(path, trim_s=None):
    """The scipy-based reader ``load_wav`` replaced, kept as its reference."""
    path = Path(path)
    try:
        with warnings.catch_warnings():
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


# sample type -> (format tag, bits, numpy type of the values)
SAMPLE_TYPES = {
    "uint8": (1, 8, "u1"),
    "int16": (1, 16, "i2"),
    "int24": (1, 24, "i4"),
    "int32": (1, 32, "i4"),
    "float32": (3, 32, "f4"),
    "float64": (3, 64, "f8"),
}
GUID_TAIL = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


def random_payload(kind, n_values, order, seed=0):
    """Random sample bytes of one sample type, floats reaching past +-1."""
    rng = np.random.default_rng(seed)
    tag, bits, code = SAMPLE_TYPES[kind]
    if tag == 3:
        return rng.uniform(-1.3, 1.3, n_values).astype(order + code).tobytes()
    if kind == "uint8":
        return rng.integers(0, 256, n_values).astype("u1").tobytes()
    top = 2 ** (bits - 1)
    values = rng.integers(-top, top, n_values, endpoint=False).astype(order + code)
    if kind == "int24":
        wide = values.view(np.uint8).reshape(-1, 4)
        return np.ascontiguousarray(wide[:, :3] if order == "<" else wide[:, 1:]).tobytes()
    return values.tobytes()


def chunk(chunk_id, body, order="<", size=None):
    size = len(body) if size is None else size
    return chunk_id + struct.pack(order + "I", size) + body + b"\0" * (len(body) % 2)


def pack_wav(payload, tag, channels, bits, rate=1000, layout="plain", block_align=None):
    """Hand-pack a WAVE file; ``layout`` picks the container and extra chunks.

    plain: RIFF with a 16-byte 'fmt '; extensible: WAVE_FORMAT_EXTENSIBLE
    'fmt '; list: an odd-length LIST chunk (with its pad byte) before
    'data'; rifx: big-endian RIFX; rf64: RF64 with a 'ds64' chunk.
    """
    order = ">" if layout == "rifx" else "<"
    if block_align is None:
        block_align = channels * ((bits + 7) // 8)
    head_tag = 0xFFFE if layout == "extensible" else tag
    fmt = struct.pack(
        order + "HHIIHH", head_tag, channels, rate, rate * block_align, block_align, bits
    )
    if layout == "extensible":
        mask = 0x4 if channels == 1 else 0x3
        fmt += struct.pack(order + "HHI", 22, bits, mask)
        fmt += struct.pack(order + "I", tag) + GUID_TAIL[order]
    body = chunk(b"fmt ", fmt, order)
    if layout == "list":
        body += chunk(b"LIST", b"INFOabc", order)
    if layout == "rf64":
        data = chunk(b"data", payload, size=0xFFFFFFFF)
        riff_size = 4 + 36 + len(body) + len(data)  # 36: the 'ds64' chunk
        ds64 = struct.pack("<QQQI", riff_size, len(payload), len(payload) // block_align, 0)
        return b"RF64" + b"\xff" * 4 + b"WAVE" + chunk(b"ds64", ds64) + body + data
    body += chunk(b"data", payload, order)
    magic = b"RIFX" if layout == "rifx" else b"RIFF"
    return magic + struct.pack(order + "I", 4 + len(body)) + b"WAVE" + body


@pytest.mark.parametrize("layout", ["plain", "extensible", "list", "rifx", "rf64"])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("kind", list(SAMPLE_TYPES))
def test_reader_matches_scipy_reference(tmp_path, kind, channels, layout):
    tag, bits, _ = SAMPLE_TYPES[kind]
    n_frames = 351  # odd, so 8-bit mono data needs a pad byte
    order = ">" if layout == "rifx" else "<"
    payload = random_payload(kind, n_frames * channels, order)
    p = tmp_path / f"{kind}_{channels}_{layout}.wav"
    p.write_bytes(pack_wav(payload, tag, channels, bits, layout=layout))
    ref = p
    if layout == "rifx":
        # the reference refuses big-endian samples wider than a byte, so a
        # RIFX file must read as the RIFF file holding the same values
        ref = tmp_path / "riff" / p.name
        ref.parent.mkdir()
        ref.write_bytes(pack_wav(random_payload(kind, n_frames * channels, "<"), tag, channels, bits))
    for trim_s in (None, 0.1, 10.0):
        got, want = load_wav(p, trim_s), reference_load_wav(ref, trim_s)
        assert np.array_equal(got.samples, want.samples)
        assert got.rate == want.rate == 1000.0
        assert got.label == want.label
        assert got.samples.size == (100 if trim_s == 0.1 else n_frames)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("kind", ["uint8", "int16", "int32", "float32", "float64"])
def test_reader_matches_scipy_reference_on_scipy_files(tmp_path, kind, channels):
    code = SAMPLE_TYPES[kind][2]
    values = np.frombuffer(random_payload(kind, 351 * channels, "<"), dtype=code)
    p = tmp_path / f"{kind}_{channels}.wav"
    wavfile.write(str(p), 1000, values.reshape(351, channels) if channels == 2 else values)
    for trim_s in (None, 0.1):
        assert np.array_equal(load_wav(p, trim_s).samples, reference_load_wav(p, trim_s).samples)


@pytest.mark.parametrize(
    "raw, match",
    [
        (b"RIFF\x10\x00\x00\x00WAVE" + chunk(b"data", bytes(4)), "no 'fmt ' chunk"),
        (pack_wav(bytes(4), 1, 1, 16)[:36], "no 'data' chunk"),
        (pack_wav(bytes(4), 1, 1, 16)[:40], "chunk header cut off"),
        (pack_wav(bytes(12), 1, 3, 16), "3 channels, expected 1 or 2"),
        (pack_wav(bytes(4), 1, 1, 20, block_align=2), "unsupported bit depth 20"),
        (pack_wav(bytes(4), 3, 1, 16), "unsupported bit depth 16"),
        (pack_wav(bytes(4), 1, 1, 16, rate=0), "sample rate 0"),
        (b"RIFF\x04\x00\x00\x00AVI ", "not a RIFF, RIFX or RF64 WAVE file"),
    ],
    ids=["no_fmt", "no_data", "cut_header", "3_channels", "20_bit_in_2_bytes",
         "16_bit_float", "rate_0", "not_wave"],
)
def test_reader_errors(tmp_path, raw, match):
    p = tmp_path / "bad.wav"
    p.write_bytes(raw)
    with pytest.raises(AudioFileError, match=match):
        load_wav(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_samples_raise(tmp_path, bad):
    x = np.array([0.0, 0.5, bad, -0.5, bad], dtype=np.float32)
    p = tmp_path / "nf.wav"
    p.write_bytes(pack_wav(x.tobytes(), 3, 1, 32))
    with pytest.raises(AudioFileError, match=r"nf\.wav: 2 non-finite samples"):
        load_wav(p)


def test_trim_reads_only_the_head(tmp_path):
    # a NaN past the kept head is never read, so it cannot fail the clip
    x = np.concatenate([np.full(100, 0.25), [np.nan]]).astype(np.float32)
    p = tmp_path / "tail.wav"
    p.write_bytes(pack_wav(x.tobytes(), 3, 1, 32))
    assert np.array_equal(load_wav(p, trim_s=0.1).samples, np.full(100, 0.25))


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

import pytest

from rformant.config import AnalysisConfig


def test_defaults():
    cfg = AnalysisConfig()
    assert cfg.trim_s == 5.0
    assert cfg.band == (1.0, 10.0)
    assert cfg.n_peaks == 6
    assert cfg.n_bins == 10
    assert cfg.f0_min_hz == 60.0
    assert cfg.f0_max_hz == 400.0
    assert cfg.mantel_permutations == 9999
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"band_lo_hz": 10.0, "band_hi_hz": 10.0},
        {"band_lo_hz": -1.0},
        {"trim_s": 0.0},
        {"n_bins": 0},
        {"mantel_permutations": 10},
        {"f0_min_hz": 500.0},
        {"trim_s": float("inf")},
        {"band_hi_hz": float("nan")},
        {"f0_min_hz": 40.0},  # the 40 ms F0 frame must span two periods
        {"n_peaks": 0},
    ],
)
def test_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        AnalysisConfig(**kwargs)


def test_from_file_parses_types_and_comments(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text(
        "# analysis settings\n"
        "\n"
        "trim_s = 3.5\n"
        "n_peaks = 4   # fewer peaks\n"
        "seed = 7\n"
    )
    cfg = AnalysisConfig.from_file(p)
    assert cfg.trim_s == 3.5
    assert cfg.n_peaks == 4
    assert cfg.seed == 7
    assert cfg.n_bins == 10  # untouched keys keep defaults


def test_unknown_key_rejected_with_location(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("trim_s = 4\nspeling = 3\n")
    with pytest.raises(ValueError, match=r"cfg\.txt:2.*speling"):
        AnalysisConfig.from_file(p)


def test_missing_equals_rejected(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        AnalysisConfig.from_file(p)


def test_unparseable_value_rejected(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("n_peaks = few\n")
    with pytest.raises(ValueError, match=r"cfg\.txt:1.*'few'"):
        AnalysisConfig.from_file(p)


@pytest.mark.parametrize("key", [
    "peak_local_max", "f0_log_hz", "resample_hz", "n_bars", "envelope_window_ms",
    "envelope_hop_ms", "f0_frame_ms", "f0_hop_ms", "voicing_ratio",
])
def test_removed_switches_are_unknown_keys(tmp_path, key):
    p = tmp_path / "cfg.txt"
    p.write_text(f"{key} = no\n")
    with pytest.raises(ValueError, match=rf"cfg\.txt:1: unknown key '{key}'"):
        AnalysisConfig.from_file(p)


def test_file_values_still_validated(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("band_lo_hz = 9\nband_hi_hz = 2\n")
    with pytest.raises(ValueError, match=r"cfg\.txt: band_lo_hz must be below"):
        AnalysisConfig.from_file(p)

"""The per-clip report module: what to_json writes, load reads back and checks."""

import csv
import io
import json
import re

import numpy as np
import pytest

from conftest import am_tone
from rformant import report
from rformant.audio_io import SignalBuffer
from rformant.cli import main
from rformant.lts import FEMS
from rformant.pipeline import analyze_signal

RATE = 8000


def write(tmp_path, rep):
    path = tmp_path / f"{rep.label}_report.json"
    path.write_text(report.to_json(rep), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", ["tone", "quiet"])
def test_load_gives_back_the_analyzed_profiles(tmp_path, name):
    x = am_tone(220.0, 4.0, 3.5, RATE) if name == "tone" else np.zeros(int(3.5 * RATE))
    rep = analyze_signal(SignalBuffer(samples=x, rate=RATE, label=name))
    loaded = report.load(write(tmp_path, rep))
    assert (loaded.label, loaded.band, loaded.n_bins) == (rep.label, rep.band, rep.n_bins)
    assert set(loaded.profiles) == set(rep.profiles)
    assert (FEMS in loaded.profiles) == (name == "tone")
    for domain, prof in rep.profiles.items():
        back = loaded.profiles[domain]
        assert (back.label, back.domain, back.peaks, back.band, back.n_bins) == (
            prof.label, prof.domain, prof.peaks, prof.band, prof.n_bins)
        assert np.array_equal(back.bins, prof.bins)
    assert loaded.pearson == rep.pearson


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Three reports written by to_json, from 3.5 s AM tones at 3, 5 and 7 Hz."""
    root = tmp_path_factory.mktemp("reports")
    paths = {}
    for name, mod_hz in (("alpha", 3.0), ("bravo", 5.0), ("carol", 7.0)):
        sig = SignalBuffer(samples=am_tone(220.0, mod_hz, 3.5, RATE), rate=RATE, label=name)
        paths[name] = write(root, analyze_signal(sig))
    return paths


def broken(reports, tmp_path, change):
    """bravo's report with ``change`` applied to its JSON data."""
    data = json.loads(reports["bravo"].read_text())
    change(data)
    path = tmp_path / "bravo_broken_report.json"
    path.write_text(json.dumps(data))
    return path


def run(command, reports, bad, out):
    paths = [str(reports["alpha"]), str(bad), str(reports["carol"])]
    extra = ["--permutations", "99"] if command == "compare" else []
    return main([command, *paths, "--out", str(out), *extra])


def peak_outside_band(data):
    data["domains"]["AMS"]["peaks"][0][0] = 12.0


@pytest.mark.parametrize("command", ["compare", "cluster"])
def test_peak_outside_band_exit_2(reports, tmp_path, capsys, command):
    out = tmp_path / "o"
    assert run(command, reports, broken(reports, tmp_path, peak_outside_band), out) == 2
    assert ("error: report 'bravo': AMS: peak at 12.0 Hz outside band (1.0, 10.0)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cluster_refuses_nan_pearson(reports, tmp_path, capsys):
    def nan_pearson(data):
        data["pearson"]["AMS:AEMS"] = float("nan")

    out = tmp_path / "o"
    assert run("cluster", reports, broken(reports, tmp_path, nan_pearson), out) == 2
    assert "error: report 'bravo': pearson AMS:AEMS must be finite" in capsys.readouterr().err
    assert not out.exists()


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def change(data):
        for key in keys:
            data = data[key]
        data[last] = value
    return change


@pytest.mark.parametrize("change, message", [
    (_set("domains", "AMS", "bars", 0, 11.0), "AMS: bars must lie in band (1.0, 10.0)"),
    (_set("domains", "AEMS", "delta_f", 0.0), "AEMS: delta_f must be positive"),
    (_set("domains", "AMS", "present", "yes"), "AMS: entry has no 'present' flag"),
    (_set("domains", "AMS", "peaks", 0, 1, "x"), "AMS: peak must be a number"),
    (_set("n_bins", "10"), "n_bins must be a positive integer, got '10'"),
    (_set("band", [1.0]), "band must be [lo, hi], got [1.0]"),
    (_set("duration_s", float("inf")), "duration_s must be finite"),
    (lambda data: data["pearson"].pop("AEMS:FEMS"), "pearson must hold AMS:AEMS"),
], ids=["bar", "delta_f", "present", "peak", "n_bins", "band", "duration", "pearson"])
def test_load_checks_every_field(reports, tmp_path, change, message):
    with pytest.raises(ValueError, match="^" + re.escape(f"report 'bravo': {message}")):
        report.load(broken(reports, tmp_path, change))


def test_table_quotes_text_cells_per_rfc_4180():
    rows = [('say "hi"', 1.5), ("a\r\nb", 2), ("plain", 0.25)]
    text = report.table(["label", "x"], rows)
    assert text == 'label,x\n"say ""hi""",1.5\n"a\r\nb",2\nplain,0.25\n'
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed == [["label", "x"], ['say "hi"', "1.5"], ["a\r\nb", "2"], ["plain", "0.25"]]

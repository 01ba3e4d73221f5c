import argparse
import csv
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import am_tone, write_wav
import rformant
from rformant.cli import _load_reports, build_parser, main
from rformant.isochrony import npvi, rpvi
from rformant.stats import distance_matrix, mantel

RATE = 8000


def am_fm_tone(mod_hz, dur_s, rate, carrier_hz=220.0, dev_hz=25.0):
    """Tone with matched amplitude and pitch modulation at mod_hz."""
    t = np.arange(int(dur_s * rate)) / rate
    env = 0.5 * (1.0 + np.sin(2 * np.pi * mod_hz * t))
    phase = 2 * np.pi * carrier_hz * t - (dev_hz / mod_hz) * np.cos(2 * np.pi * mod_hz * t)
    return env * np.sin(phase)


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    """Three analyzable clips plus one silent one, 3.5 s each."""
    root = tmp_path_factory.mktemp("clips")
    specs = {"alpha": 3.0, "bravo": 5.0, "carol": 7.0}
    for name, mod in specs.items():
        x = am_fm_tone(mod, 3.5, RATE) * 0.9
        write_wav(root / f"{name}.wav", RATE, x)
    write_wav(root / "quiet.wav", RATE, np.zeros(int(3.5 * RATE)))
    return root


@pytest.fixture(scope="module")
def analyzed(clips, tmp_path_factory):
    out = tmp_path_factory.mktemp("analyzed")
    wavs = [str(clips / f"{n}.wav") for n in ("alpha", "bravo", "carol", "quiet")]
    rc = main(["analyze", *wavs, "--out", str(out)])
    assert rc == 0
    return out


def read(path):
    return path.read_bytes()


def _cli_env():
    """The environment for a CLI subprocess that imports this rformant."""
    src = str(Path(rformant.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


# ---- analyze ----


def test_analyze_writes_per_clip_artifacts(analyzed):
    for name in ("alpha", "bravo", "carol", "quiet"):
        for suffix in ("_report.json", "_spectra.csv", "_bins.csv", "_panels.svg"):
            assert (analyzed / f"{name}{suffix}").exists(), name + suffix
    assert (analyzed / "combined_bins.csv").exists()


def test_analyze_report_schema(analyzed):
    rep = json.loads(read(analyzed / "bravo_report.json"))
    assert rep["schema"] == 1
    assert rep["label"] == "bravo"
    assert rep["domains"]["AMS"]["present"] is True
    top = rep["domains"]["AMS"]["peaks"][0]
    assert top[0] == pytest.approx(5.0, abs=0.3)


def test_analyze_silence_marks_fems_absent(analyzed):
    # a flat spectrum has no R-formant: every domain is absent, none has zero bins
    rep = json.loads(read(analyzed / "quiet_report.json"))
    assert rep["domains"] == {d: {"present": False} for d in ("AMS", "AEMS", "FEMS")}
    assert set(rep["pearson"].values()) == {None}


def test_combined_bins_sorted_and_shaped(analyzed):
    lines = read(analyzed / "combined_bins.csv").decode().splitlines()
    assert lines[0] == "label," + ",".join(f"bin_{i}" for i in range(10))
    labels = [l.split(",")[0] for l in lines[1:]]
    assert labels == sorted(labels) == ["alpha", "bravo", "carol"]  # quiet has no AMS
    assert all(len(l.split(",")) == 11 for l in lines[1:])


def test_analyze_batch_of_nine(clips, tmp_path):
    wavs = []
    for i in range(9):
        x = am_tone(200.0 + 10 * i, 2.0 + 0.7 * i, 3.5, RATE) * 0.9
        p = tmp_path / f"c{i}.wav"
        write_wav(p, RATE, x)
        wavs.append(str(p))
    out = tmp_path / "out"
    assert main(["analyze", *wavs, "--out", str(out), "--jobs", "4"]) == 0
    lines = read(out / "combined_bins.csv").decode().splitlines()
    assert len(lines) == 1 + 9
    assert all(len(l.split(",")) == 1 + 10 for l in lines[1:])


def test_analyze_reruns_are_byte_identical(clips, tmp_path):
    wavs = [str(clips / "alpha.wav"), str(clips / "quiet.wav")]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", *wavs, "--out", str(out1)]) == 0
    assert main(["analyze", *reversed(wavs), "--out", str(out2), "--jobs", "2"]) == 0
    for f in sorted(p.name for p in out1.iterdir()):
        assert read(out1 / f) == read(out2 / f), f


def test_analyze_partial_batch_exit_1(clips, tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFnope")
    out = tmp_path / "out"
    rc = main(["analyze", str(clips / "alpha.wav"), str(bad), "--out", str(out)])
    assert rc == 1
    assert (out / "alpha_report.json").exists()
    assert "bad.wav" in capsys.readouterr().err


def test_analyze_failed_line_names_each_clip_once(clips, tmp_path, capsys):
    missing = tmp_path / "nope.wav"
    short = tmp_path / "short.wav"
    write_wav(short, RATE, np.zeros(10))  # too short to analyze, read fine
    rc = main(["analyze", str(clips / "alpha.wav"), str(missing), str(short),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("failed: ")]
    assert len(failed) == 2
    assert failed[0].startswith(f"failed: {missing}: cannot read file")
    assert failed[1].startswith(f"failed: {short}: ")
    for line, path in zip(failed, (missing, short)):
        assert line.count(path.name) == 1, line


def test_analyze_nothing_succeeds_exit_2(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"junk")
    assert main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_analyze_duplicate_labels_exit_2(clips, tmp_path):
    other = tmp_path / "copy"
    other.mkdir()
    dup = other / "alpha.wav"
    dup.write_bytes(read(clips / "alpha.wav"))
    rc = main(["analyze", str(clips / "alpha.wav"), str(dup),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_analyze_duplicate_stems_refused_before_any_work(clips, tmp_path, capsys):
    # the copy under b/ is broken, so only a check made before analysis sees two x's
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    good, bad = tmp_path / "a" / "x.wav", tmp_path / "b" / "x.wav"
    good.write_bytes(read(clips / "alpha.wav"))
    bad.write_bytes(b"RIFFnope")
    out = tmp_path / "o"
    assert main(["analyze", str(good), str(bad), "--out", str(out)]) == 2
    assert "duplicate clip labels" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_clip_named_combined_refused_before_any_work(clips, tmp_path, capsys):
    # its own combined_bins.csv would be replaced by the batch table; x.wav is
    # broken, so only a check made before analysis exits 2 with nothing written
    good, bad = tmp_path / "combined.wav", tmp_path / "x.wav"
    good.write_bytes(read(clips / "alpha.wav"))
    bad.write_bytes(b"RIFFnope")
    out = tmp_path / "o"
    assert main(["analyze", str(good), str(bad), "--out", str(out)]) == 2
    assert "clip label 'combined' is reserved" in capsys.readouterr().err
    assert not out.exists()


def test_cli_band_and_peaks_flags(clips, tmp_path):
    out = tmp_path / "out"
    rc = main(["analyze", str(clips / "alpha.wav"), "--out", str(out),
               "--band", "2:6", "--peaks", "3"])
    assert rc == 0
    rep = json.loads(read(out / "alpha_report.json"))
    assert rep["band"] == [2.0, 6.0]
    peaks = rep["domains"]["AMS"]["peaks"]
    assert len(peaks) == 3
    assert all(2.0 <= f <= 6.0 for f, _ in peaks)


def test_malformed_band_exit_2(clips, tmp_path, capsys):
    for band in ("5", "2:x", "1:2:3"):
        rc = main(["analyze", str(clips / "alpha.wav"), "--out", str(tmp_path / "o"),
                   "--band", band])
        assert rc == 2
        assert f"error: --band expects LO:HI, got {band!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_trim_flag_limits_duration(clips, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", str(clips / "alpha.wav"), "--out", str(out), "--trim", "1.5"]) == 0
    assert json.loads(read(out / "alpha_report.json"))["duration_s"] == 1.5
    assert "warning: alpha: AMS: series of 1.500 s is under 3 s" in capsys.readouterr().err


def test_one_second_voiced_clip_drops_only_fems(clips, tmp_path, capsys):
    # the F0 track of a 1 s clip is 0.97 s long, under the 1 s spectrum minimum
    out = tmp_path / "out"
    assert main(["analyze", str(clips / "alpha.wav"), "--out", str(out), "--trim", "1"]) == 0
    domains = json.loads(read(out / "alpha_report.json"))["domains"]
    assert domains["AMS"]["present"] and domains["AEMS"]["present"]
    assert domains["FEMS"] == {"present": False}
    std = capsys.readouterr()
    assert "alpha: 1.00 s [FEMS absent]" in std.out
    assert re.search(r"^warning: alpha: FEMS absent: F0 track of 0\.9[0-9]+ s is under 1 s$",
                     std.err, re.M)


def test_analyze_notes_are_ordered_by_label_at_every_jobs_count(tmp_path):
    # five 2.5 s clips, one of them silent: every clip has notes, and clips
    # finish in an order that depends on the thread pool
    clips = {"quiet": np.zeros(int(2.5 * RATE))}
    clips.update((f"s{i}", am_tone(200.0 + 10 * i, 3.0 + i, 2.5, RATE) * 0.9) for i in range(4))
    for name, x in clips.items():
        write_wav(tmp_path / f"{name}.wav", RATE, x)
    wavs = [str(tmp_path / f"{name}.wav") for name in clips]
    runs = [subprocess.run([sys.executable, "-m", "rformant.cli", "analyze", *wavs,
                            "--out", str(tmp_path / f"o{k}"), "--jobs", jobs],
                           env=_cli_env(), capture_output=True, text=True)
            for k, jobs in enumerate(("2", "2", "1"))]
    assert [r.returncode for r in runs] == [0, 0, 0]
    err = runs[0].stderr
    assert all(r.stderr == err for r in runs[1:])
    assert "UserWarning" not in err and ".py:" not in err
    labels = [line.split(": ")[1] for line in err.splitlines()]
    assert all(line.startswith("warning: ") for line in err.splitlines())
    assert labels == sorted(labels) and set(labels) == {"quiet", "s0", "s1", "s2", "s3"}
    assert "warning: quiet: AMS absent: flat spectrum\n" in err
    assert "quiet: 2.50 s [AMS, AEMS, FEMS absent]" in runs[0].stdout


def test_analyze_peaks_zero_refused_before_any_work(clips, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["analyze", str(clips / "alpha.wav"), "--out", str(out), "--peaks", "0"]) == 2
    assert capsys.readouterr().err == "error: n_peaks must be at least 1\n"
    assert not out.exists()


def test_domain_flag_selects_combined_bins(analyzed, clips, tmp_path):
    out = tmp_path / "out"
    wavs = [str(clips / f"{n}.wav") for n in ("alpha", "bravo", "carol", "quiet")]
    assert main(["analyze", *wavs, "--out", str(out), "--domain", "aems"]) == 0
    rows = read(out / "combined_bins.csv").decode().splitlines()[1:]
    expected = []
    for name in ("alpha", "bravo", "carol", "quiet"):
        aems = json.loads(read(out / f"{name}_report.json"))["domains"]["AEMS"]
        if aems["present"]:
            expected.append([name, *aems["bins"]])
    assert [[r.split(",")[0], *map(float, r.split(",")[1:])] for r in rows] == expected
    assert read(out / "combined_bins.csv") != read(analyzed / "combined_bins.csv")


def test_config_file_and_flag_precedence(clips, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_peaks = 2\nn_bins = 4\n")
    out = tmp_path / "out"
    rc = main(["analyze", str(clips / "alpha.wav"), "--out", str(out),
               "--config", str(cfg), "--peaks", "5"])
    assert rc == 0
    rep = json.loads(read(out / "alpha_report.json"))
    assert len(rep["domains"]["AMS"]["peaks"]) == 5  # flag beats file
    assert rep["n_bins"] == 4  # file beats default


def test_config_env_fallback(clips, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_bins = 3\n")
    monkeypatch.setenv("RFORMANT_CONFIG", str(cfg))
    out = tmp_path / "out"
    assert main(["analyze", str(clips / "alpha.wav"), "--out", str(out)]) == 0
    rep = json.loads(read(out / "alpha_report.json"))
    assert rep["n_bins"] == 3


def test_bad_config_exit_2(clips, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("no_such_key = 1\n")
    rc = main(["analyze", str(clips / "alpha.wav"), "--out", str(tmp_path / "o"),
               "--config", str(cfg)])
    assert rc == 2
    assert "no_such_key" in capsys.readouterr().err


@pytest.mark.parametrize("flags,config,key", [
    (["--trim", "inf"], "", "trim_s"),
    (["--trim", "nan"], "", "trim_s"),
    (["--band", "1:inf"], "", "band_hi_hz"),
    ([], "f0_max_hz = inf\n", "f0_max_hz"),
])
def test_non_finite_setting_refused_before_any_work(clips, tmp_path, capsys, flags, config, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    out = tmp_path / "o"
    rc = main(["analyze", str(clips / "alpha.wav"), "--out", str(out),
               "--config", str(cfg), *flags])
    assert rc == 2
    where = f"{cfg}: " if config else ""  # a config file's value error names the file
    assert capsys.readouterr().err == f"error: {where}{key} must be finite\n"
    assert not out.exists()


def test_f0_min_below_frame_limit_refused_before_any_work(clips, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("f0_min_hz = 40\n")
    out = tmp_path / "o"
    rc = main(["analyze", str(clips / "alpha.wav"), "--out", str(out), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: f0_min_hz must be at least 50")
    assert "failed:" not in err
    assert not out.exists()


# ---- compare ----


def test_compare_writes_both_tables(analyzed, tmp_path, capsys):
    reports = [str(analyzed / f"{n}_report.json") for n in ("alpha", "bravo", "carol")]
    out = tmp_path / "cmp"
    rc = main(["compare", *reports, "--out", str(out), "--permutations", "99"])
    assert rc == 0
    summary = read(out / "pearson_summary.csv").decode().splitlines()
    assert summary[0] == "pair,mean_r,min_label,min_r,max_label,max_r"
    pairs = [l.split(",")[0] for l in summary[1:]]
    assert pairs == ["AMS:AEMS", "AMS:FEMS", "AEMS:FEMS"]
    man = read(out / "mantel.csv").decode().splitlines()
    assert man[0] == "pair,r,p,significance"
    for line in man[1:]:
        pair, r, p, sig = line.split(",")
        assert -1.0 <= float(r) <= 1.0
        assert 0.0 < float(p) <= 1.0
        assert sig in ("**", "*", "ns")


def test_compare_seed_and_permutations_reach_mantel(analyzed, tmp_path):
    reports = [str(analyzed / f"{n}_report.json")
               for n in ("alpha", "bravo", "carol", "quiet")]
    out = tmp_path / "cmp"
    assert main(["compare", *reports, "--out", str(out),
                 "--seed", "3", "--permutations", "99"]) == 0
    rows = read(out / "mantel.csv").decode().splitlines()[1:]
    assert rows
    loaded = _load_reports(reports)
    for row in rows:
        pair, _, p, _ = row.split(",")
        da, db = pair.split(":")
        shared = [r for r in loaded if da in r.profiles and db in r.profiles]
        ma = distance_matrix([r.profiles[da] for r in shared])
        mb = distance_matrix([r.profiles[db] for r in shared])
        assert float(p) == mantel(ma, mb, 99, 3)["p"], pair


def test_compare_too_few_reports_exit_2(analyzed, tmp_path):
    reports = [str(analyzed / f"{n}_report.json") for n in ("alpha", "bravo")]
    assert main(["compare", *reports, "--out", str(tmp_path / "o")]) == 2


def test_compare_duplicate_labels_exit_2(analyzed, tmp_path):
    r = str(analyzed / "alpha_report.json")
    assert main(["compare", r, r, r, "--out", str(tmp_path / "o")]) == 2


def test_compare_missing_file_exit_2(tmp_path):
    assert main(["compare", "a.json", "b.json", "c.json",
                 "--out", str(tmp_path / "o")]) == 2


# ---- cluster ----


def test_cluster_outputs(analyzed, tmp_path, capsys):
    reports = [str(analyzed / f"{n}_report.json")
               for n in ("alpha", "bravo", "carol", "quiet")]
    out = tmp_path / "clu"
    assert main(["cluster", *reports, "--out", str(out)]) == 0
    # the silent clip has no AMS profile, so it is left out of the tree
    assert "warning: quiet: no AMS profile; excluded" in capsys.readouterr().err
    dm = read(out / "distance_matrix.csv").decode().splitlines()
    assert dm[0] == "label,alpha,bravo,carol"
    assert len(dm) == 4
    newick = read(out / "dendrogram.nwk").decode().strip()
    assert newick.endswith(";")
    assert newick.count("(") == newick.count(")") == 2
    for name in ("alpha", "bravo", "carol"):
        assert name in newick
    assert "quiet" not in newick
    svg = read(out / "dendrogram.svg").decode()
    ET.fromstring(svg)  # well-formed XML


def test_cluster_excludes_missing_domain(analyzed, tmp_path, capsys):
    reports = [str(analyzed / f"{n}_report.json")
               for n in ("alpha", "bravo", "carol", "quiet")]
    out = tmp_path / "clu"
    rc = main(["cluster", *reports, "--out", str(out), "--domain", "fems"])
    assert rc == 0
    assert "quiet" in capsys.readouterr().err
    dm = read(out / "distance_matrix.csv").decode().splitlines()
    assert dm[0] == "label,alpha,bravo,carol"


def test_cluster_too_few_usable_exit_2(analyzed, tmp_path):
    reports = [str(analyzed / f"{n}_report.json") for n in ("alpha", "quiet")]
    rc = main(["cluster", *reports, "--out", str(tmp_path / "o"), "--domain", "fems"])
    assert rc == 2


def test_cluster_hamming_metric(analyzed, tmp_path):
    reports = [str(analyzed / f"{n}_report.json") for n in ("alpha", "bravo", "carol")]
    out = tmp_path / "clu"
    assert main(["cluster", *reports, "--out", str(out), "--metric", "hamming"]) == 0
    dm = read(out / "distance_matrix.csv").decode().splitlines()
    cells = [float(v) for v in dm[1].split(",")[1:]]
    assert all(v == int(v) for v in cells)  # hamming counts are whole numbers


def test_labels_with_reserved_characters_survive_every_output(tmp_path):
    labels = ["a&b", "c,d", "e f", "it's", "x[1]"]
    for i, label in enumerate(labels):
        write_wav(tmp_path / f"{label}.wav", RATE, 0.9 * am_fm_tone(3.0 + i, 3.5, RATE))
    out = tmp_path / "out"
    assert main(["analyze", *(str(tmp_path / f"{label}.wav") for label in labels),
                 "--out", str(out)]) == 0
    reports = [str(out / f"{label}_report.json") for label in labels]
    assert main(["compare", *reports, "--out", str(out), "--permutations", "99"]) == 0
    assert main(["cluster", *reports, "--out", str(out)]) == 0

    def texts(name):  # parsing also checks that the file is well-formed XML
        return [t.text for t in ET.parse(out / name).iter("{http://www.w3.org/2000/svg}text")]
    for label in labels:
        assert f"waveform: {label}" in texts(f"{label}_panels.svg")
    assert sorted(texts("dendrogram.svg")) == sorted(labels)
    tables = {}
    for path in out.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == len(rows[0]) for row in rows), path.name
        tables[path.name] = rows
    assert [row[0] for row in tables["combined_bins.csv"][1:]] == sorted(labels)
    matrix = tables["distance_matrix.csv"]
    assert matrix[0][1:] == [row[0] for row in matrix[1:]] == sorted(labels)
    summary = tables["pearson_summary.csv"]
    for row in summary[1:]:
        assert {row[summary[0].index("min_label")], row[summary[0].index("max_label")]} <= set(labels)

    newick = read(out / "dendrogram.nwk").decode()
    leaves = re.findall(r"[(,]('(?:[^']|'')*'|[^(),:;'\[\] ]+):", newick)
    assert sorted(leaf[1:-1].replace("''", "'") if leaf.startswith("'") else leaf
                  for leaf in leaves) == sorted(labels)


def permutations(command):
    """A short Mantel run for compare; cluster has no --permutations flag."""
    return ["--permutations", "99"] if command == "compare" else []


def report_with_nan_bin(analyzed, tmp_path, name):
    """A copy of a report whose JSON carries a NaN bin, as json.dump writes it."""
    rep = json.loads(read(analyzed / f"{name}_report.json"))
    rep["domains"]["AMS"]["bins"][0] = float("nan")
    path = tmp_path / f"{name}_nan_report.json"
    path.write_text(json.dumps(rep))
    assert "NaN" in path.read_text()
    return str(path)


@pytest.mark.parametrize("command", ["compare", "cluster"])
def test_non_finite_report_bins_exit_2(analyzed, tmp_path, capsys, command):
    bad = report_with_nan_bin(analyzed, tmp_path, "bravo")
    reports = [str(analyzed / "alpha_report.json"), bad,
               str(analyzed / "carol_report.json")]
    out = tmp_path / "o"
    rc = main([command, *reports, "--out", str(out), *permutations(command)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'bravo'" in err and "finite" in err
    assert not (out / "mantel.csv").exists()
    assert not (out / "dendrogram.nwk").exists()


@pytest.mark.parametrize("broken, message", [
    ("no_bins", "error: report 'bravo': AEMS: present but has no bins"),
    ("no_flag", "error: report 'bravo': AEMS: entry has no 'present' flag"),
    ("list", "report domains must be a JSON object"),
    ("zero_bins", "error: report 'bravo': AEMS: bins must sum to 1, got 0.0"),
], ids=["no_bins", "no_flag", "list", "zero_bins"])
@pytest.mark.parametrize("command", ["compare", "cluster"])
def test_malformed_report_domains_exit_2(analyzed, tmp_path, capsys, command, broken,
                                         message):
    rep = json.loads(read(analyzed / "bravo_report.json"))
    if broken == "no_bins":
        del rep["domains"]["AEMS"]["bins"]
    elif broken == "no_flag":
        del rep["domains"]["AEMS"]["present"]
    elif broken == "zero_bins":  # as reports of flat spectra were once written
        rep["domains"]["AEMS"]["bins"] = [0.0] * 10
    else:
        rep["domains"] = list(rep["domains"].values())
    bad = tmp_path / "bravo_broken_report.json"
    bad.write_text(json.dumps(rep))
    reports = [str(analyzed / "alpha_report.json"), str(bad),
               str(analyzed / "carol_report.json")]
    out = tmp_path / "o"
    rc = main([command, *reports, "--out", str(out), *permutations(command)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_compare_non_finite_bins_writes_nothing(analyzed, tmp_path, capsys):
    bad = report_with_nan_bin(analyzed, tmp_path, "bravo")
    reports = [str(analyzed / "alpha_report.json"), bad,
               str(analyzed / "carol_report.json")]
    out = tmp_path / "o"
    rc = main(["compare", *reports, "--out", str(out), "--permutations", "99"])
    assert rc == 2
    assert "error: report 'bravo': AMS: bins, peaks and band must be finite" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_compare_non_finite_pearson_exit_2(analyzed, tmp_path, capsys):
    rep = json.loads(read(analyzed / "bravo_report.json"))
    rep["pearson"]["AMS:AEMS"] = float("nan")
    bad = tmp_path / "bravo_nan_report.json"
    bad.write_text(json.dumps(rep))
    reports = [str(analyzed / "alpha_report.json"), str(bad),
               str(analyzed / "carol_report.json")]
    out = tmp_path / "o"
    rc = main(["compare", *reports, "--out", str(out), "--permutations", "99"])
    assert rc == 2
    assert "error: report 'bravo': pearson AMS:AEMS must be finite" in capsys.readouterr().err
    assert not (out / "pearson_summary.csv").exists()


@pytest.mark.parametrize("broken, message", [("no_band", "report has no band"),
                                              ("list", "a report is a JSON object")])
@pytest.mark.parametrize("command", ["compare", "cluster"])
def test_malformed_report_exit_2(analyzed, tmp_path, capsys, command, broken, message):
    rep = json.loads(read(analyzed / "carol_report.json"))
    del rep["band"]
    bad = tmp_path / "carol_report.json"
    bad.write_text(json.dumps(rep if broken == "no_band" else [rep]))
    reports = [str(analyzed / "alpha_report.json"), str(analyzed / "bravo_report.json"),
               str(bad)]
    assert main([command, *reports, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [(["--band", "2:8"], "band [2.0, 8.0]"), (["--bins", "7"], "n_bins 7")],
    ids=["band", "bins"],
)
@pytest.mark.parametrize("command", ["compare", "cluster"])
def test_mixed_analysis_settings_exit_2(analyzed, clips, tmp_path, capsys, command,
                                        flags, message):
    other = tmp_path / "other"
    assert main(["analyze", str(clips / "carol.wav"), "--out", str(other), *flags]) == 0
    reports = [str(analyzed / "alpha_report.json"), str(analyzed / "bravo_report.json"),
               str(other / "carol_report.json")]
    out = tmp_path / "o"
    rc = main([command, *reports, "--out", str(out), *permutations(command)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: report 'carol': {message} differs from 'alpha'" in err
    assert not out.exists()


def test_cluster_and_pvi_read_no_config(analyzed, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("no_such_key = 1\n")
    monkeypatch.setenv("RFORMANT_CONFIG", str(cfg))
    reports = [str(analyzed / f"{n}_report.json") for n in ("alpha", "bravo", "carol")]
    assert main(["cluster", *reports, "--out", str(tmp_path / "o")]) == 0
    ann = tmp_path / "a.csv"
    ann.write_text("0.0,0.2,a\n0.2,0.6,b\n0.6,0.7,c\n")
    assert main(["pvi", str(ann), "--out", str(tmp_path / "p")]) == 0


# ---- pvi ----


@pytest.fixture()
def annotation(tmp_path):
    p = tmp_path / "words.csv"
    p.write_text(
        "start,end,label\n"
        "0.0,0.2,ba\n"
        "0.2,0.6,naa\n"
        "0.6,0.7,-\n"      # pause: excluded from durations
        "0.7,0.9,ko\n"
        "0.9,1.3,mii\n"
    )
    return p


def test_pvi_csv_matches_direct_computation(annotation, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pvi", str(annotation), "--out", str(out)]) == 0
    lines = read(out / "words_pvi.csv").decode().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    # same parsed-float differences the reader produces
    d = np.array([0.2 - 0.0, 0.6 - 0.2, 0.9 - 0.7, 1.3 - 0.9])
    assert float(row["rpvi"]) == rpvi(d)
    assert float(row["npvi"]) == npvi(d)
    assert row["count"] == "4"
    assert float(row["total_s"]) == pytest.approx(1.2)
    assert float(row["rate_hz"]) == pytest.approx(4 / 1.2)
    quads = [int(row[k]) for k in
             ("q_minus_minus", "q_minus_plus", "q_plus_minus", "q_plus_plus")]
    assert sum(quads) == 3  # n-1 adjacent pairs
    scatter = read(out / "words_wagner.csv").decode().splitlines()
    assert scatter[0] == "z_a,z_b"
    assert len(scatter) == 1 + 3
    text = capsys.readouterr().out
    assert "rPVI" in text and "nPVI" in text


def test_pvi_millisecond_unit_scales_raw_only(annotation, tmp_path):
    out_s = tmp_path / "s"
    out_ms = tmp_path / "ms"
    assert main(["pvi", str(annotation), "--out", str(out_s)]) == 0
    assert main(["pvi", str(annotation), "--out", str(out_ms), "--unit", "ms"]) == 0

    def row(out):
        lines = read(out / "words_pvi.csv").decode().splitlines()
        return dict(zip(lines[0].split(","), lines[1].split(",")))

    rs, rms = row(out_s), row(out_ms)
    assert float(rms["rpvi"]) == pytest.approx(1000 * float(rs["rpvi"]))
    assert float(rms["npvi"]) == pytest.approx(float(rs["npvi"]))  # scale-free
    assert rms["total_s"] == rs["total_s"]  # rates stay in seconds


def test_pvi_single_interval_exit_2(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("start,end,label\n0.0,0.5,a\n")
    assert main(["pvi", str(p), "--out", str(tmp_path / "o")]) == 2


def test_pvi_equal_durations_skips_scatter(tmp_path, capsys):
    p = tmp_path / "even.csv"
    p.write_text("0.0,0.5,a\n0.5,1.0,b\n1.0,1.5,c\n")
    out = tmp_path / "o"
    assert main(["pvi", str(p), "--out", str(out)]) == 0
    # zero spread: z-scores undefined, so no scatter file and empty quadrants
    assert not (out / "even_wagner.csv").exists()
    lines = read(out / "even_pvi.csv").decode().splitlines()
    assert lines[1].endswith(",,,,")
    assert float(lines[1].split(",")[0]) == 0.0


def test_pvi_bad_annotation_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("start,end,label\n0.5,0.1,x\n")
    assert main(["pvi", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "bad.csv" in capsys.readouterr().err


# ---- calibrate ----


def test_calibrate_outputs(clips, tmp_path):
    words = tmp_path / "words.csv"
    sylls = tmp_path / "sylls.csv"
    # word rate 2.5 Hz, syllable rate 5 Hz over the same 2 s span
    words.write_text("".join(
        f"{0.4 * i},{0.4 * (i + 1)},w{i}\n" for i in range(5)))
    sylls.write_text("".join(
        f"{0.2 * i},{0.2 * (i + 1)},s{i}\n" for i in range(10)))
    out = tmp_path / "cal"
    rc = main(["calibrate", str(clips / "alpha.wav"), str(words), str(sylls),
               "--out", str(out)])
    assert rc == 0
    cal = json.loads(read(out / "calibration.json"))
    assert cal["schema"] == 1
    assert cal["word_rate_hz"] == pytest.approx(2.5)
    assert cal["syllable_rate_hz"] == pytest.approx(5.0)
    assert cal["predicted"]["lo_hz"] == pytest.approx(2.5)
    assert cal["predicted"]["hi_hz"] == pytest.approx(5.0)
    assert cal["predicted"]["center_hz"] == pytest.approx(3.75)
    assert cal["measured"]["lo_hz"] <= cal["measured"]["center_hz"] <= cal["measured"]["hi_hz"]
    assert cal["center_error_hz"] >= 0.0


def test_calibrate_ignores_pause_rows(clips, tmp_path):
    words = "".join(f"{0.4 * i},{0.4 * i + 0.3},w{i}\n" for i in range(5))
    paused = "".join(f"{0.4 * i},{0.4 * i + 0.3},w{i}\n{0.4 * i + 0.3},{0.4 * (i + 1)},{p}\n"
                     for i, p in enumerate(["-", "", "--", "-", ""]))
    sylls = tmp_path / "sylls.csv"
    sylls.write_text("".join(f"{0.2 * i},{0.2 * (i + 1)},s{i}\n" for i in range(10)))
    outputs = []
    for name, text in (("plain", words), ("paused", paused)):
        ann = tmp_path / f"{name}.csv"
        ann.write_text(text)
        out = tmp_path / f"cal_{name}"
        assert main(["calibrate", str(clips / "alpha.wav"), str(ann), str(sylls),
                     "--out", str(out)]) == 0
        outputs.append(read(out / "calibration.json"))
    assert outputs[0] == outputs[1]


def test_calibrate_silent_clip_exit_2(clips, tmp_path, capsys):
    w = tmp_path / "w.csv"
    w.write_text("0,0.5,a\n0.5,1.0,b\n")
    out = tmp_path / "o"
    assert main(["calibrate", str(clips / "quiet.wav"), str(w), str(w), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "warning: quiet: AMS absent: flat spectrum\n" in err
    assert err.endswith("error: quiet: no AMS profile to calibrate against\n")
    assert not out.exists()


def test_calibrate_missing_wav_exit_2(tmp_path):
    w = tmp_path / "w.csv"
    w.write_text("0,0.5,a\n0.5,1.0,b\n")
    assert main(["calibrate", str(tmp_path / "no.wav"), str(w), str(w),
                 "--out", str(tmp_path / "o")]) == 2


# ---- parser ----


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_arguments_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["analyze"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_2(tmp_path, capsys, command, jobs):
    with pytest.raises(SystemExit) as exc:
        main([command, "a", "b", "c", "--jobs", jobs, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the flags each subcommand reads; every other flag is an argparse error
READS = {
    "analyze": {"--config", "--out", "--trim", "--band", "--peaks", "--bins", "--jobs",
                "--domain"},
    "compare": {"--config", "--out", "--metric", "--permutations", "--seed"},
    "cluster": {"--out", "--metric", "--domain"},
    "pvi": {"--out", "--unit"},
    "calibrate": {"--config", "--out", "--trim", "--band", "--peaks"},
}
# a value each flag accepts, so that only the flag itself can be refused
FLAG_VALUES = {
    "--config": "/nonexistent", "--out": "o", "--trim": "1", "--band": "2:8",
    "--peaks": "3", "--bins": "5", "--metric": "hamming", "--permutations": "99",
    "--seed": "7", "--jobs": "2", "--domain": "aems", "--unit": "ms",
}
POSITIONALS = {"analyze": ["a.wav"], "compare": ["a", "b", "c"], "cluster": ["a", "b"],
               "pvi": ["a.csv"], "calibrate": ["a.wav", "w.csv", "s.csv"]}


def test_parser_flags_match_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(READS)
    for command, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == READS[command], command
    assert set(FLAG_VALUES) == set().union(*READS.values())


@pytest.mark.parametrize("command, flag", [
    (c, f) for c in READS for f in FLAG_VALUES if f not in READS[c]
])
def test_unread_flag_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, *POSITIONALS[command], "--out", str(out), flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: rformant {command} ")
    assert f"unrecognized arguments: {flag} " in err
    assert not out.exists()


def test_unknown_flag_before_subcommand_is_refused_by_top_level_parser(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "pvi", "a.csv", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: rformant [-h] ")
    assert "rformant: error: unrecognized arguments: --bogus" in err
    assert not out.exists()


def test_cli_import_does_not_load_scipy():
    # every compare and cluster call pays the CLI's import time
    code = ("import sys, rformant.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

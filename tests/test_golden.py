"""Golden output digests: every subcommand's files stay byte-identical.

A seeded corpus of short clips is generated here, at 8 to 48 kHz in int16,
int24, float32 and stereo, with three annotation tiers: words with pauses,
syllables, and constant durations. The CLI runs on it, and the sha256 of
every file it writes is compared with ``golden/golden.json``. A change that moves
outputs on purpose rewrites that file with

    PYTHONPATH=src python3 tests/golden/update.py

and its diff then shows exactly which outputs moved. Every file is also
checked for its format before it is digested, so update.py cannot pin a
malformed file.
"""

import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import am_tone, harmonic_voice, pulse_train, write_wav
from rformant.cli import main

GOLDEN = Path(__file__).parent / "golden" / "golden.json"
DUR_S = 3.5
METRICS = ("manhattan", "hamming")
CLUSTER_DOMAINS = ("ams", "aems", "fems")


def _voice(rate, f0, syllable_hz, seed):
    def contour(t):
        return f0 * (1.0 + 0.12 * np.sin(2 * np.pi * 0.6 * t))
    return harmonic_voice(contour, rate, DUR_S, syllable_hz=syllable_hz, seed=seed)


def _clips():
    """(name, rate, sample type, float samples; 2-D for stereo) per clip."""
    v16 = _voice(16000, 140.0, 4.2, 3)
    v44 = _voice(44100, 210.0, 3.1, 6)
    return [
        ("a08_int16", 8000, "int16", _voice(8000, 120.0, 4.0, 1)),
        ("b08_int24", 8000, "int24", 0.8 * pulse_train(5.0, DUR_S, 8000, carrier_hz=180.0)),
        ("c16_stereo_int16", 16000, "int16", np.column_stack([v16, 0.5 * v16[::-1]])),
        ("d22_int24", 22050, "int24", _voice(22050, 180.0, 5.5, 4)),
        ("e22_float32", 22050, "float32", 0.7 * am_tone(240.0, 3.5, DUR_S, 22050)),
        ("f44_int16", 44100, "int16", _voice(44100, 100.0, 2.5, 5)),
        ("g44_stereo_float32", 44100, "float32", np.column_stack([v44, 0.9 * v44])),
        ("h48_float32", 48000, "float32", _voice(48000, 250.0, 6.0, 7)),
        ("i16_silence", 16000, "int16", np.zeros(int(DUR_S * 16000))),
    ]


def _tiers():
    """(name, CSV text) per annotation tier, for pvi and calibrate."""
    rng = np.random.default_rng(11)
    rows, t = [], 0.0
    for i, dur in enumerate(rng.uniform(0.12, 0.55, 12)):
        rows.append(f"{t:.3f},{t + dur:.3f},w{i}")
        t += dur
        if i % 4 == 3:  # a pause after every fourth word
            rows.append(f"{t:.3f},{t + 0.2:.3f},-")
            t += 0.2
    words = "# generated word tier\nstart,end,label\n" + "".join(r + "\n" for r in rows)
    bounds = np.cumsum(np.r_[0.0, rng.uniform(0.08, 0.3, 16)])
    syllables = "".join(f"{a:.3f},{b:.3f},s{i}\n"
                        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])))
    constant = "".join(f"{0.25 * i},{0.25 * (i + 1)},c{i}\n" for i in range(5))
    return [("words", words), ("syllables", syllables), ("constant", constant)]


def write_corpus(root: Path) -> list[str]:
    """Write the clips and the annotation tiers; return the clip paths.

    Each tier is written as ``<name>.csv`` beside the clips.
    """
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, rate, dtype, x in _clips():
        path = root / f"{name}.wav"
        write_wav(path, rate, x, dtype)
        paths.append(str(path))
    for name, text in _tiers():
        (root / f"{name}.csv").write_text(text, encoding="utf-8")
    return paths


def _digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _format_problems(root: Path) -> list[str]:
    """Each .svg that does not parse, .csv whose rows are not all as wide as
    its header, and .json that does not load, below root."""
    problems = []
    for p in sorted(root.rglob("*")):
        name = p.relative_to(root).as_posix()
        try:
            if p.suffix == ".svg":
                ET.parse(p)
            elif p.suffix == ".json":
                json.loads(p.read_text(encoding="utf-8"))
            elif p.suffix == ".csv":
                with open(p, newline="", encoding="utf-8") as fh:
                    widths = sorted({len(row) for row in csv.reader(fh)})
                if len(widths) != 1:
                    problems.append(f"{name}: rows of widths {widths}")
        except (ET.ParseError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
    return problems


def output_digests(wavs: list[str], root: Path, jobs: int) -> dict[str, str]:
    """Run analyze, then compare and cluster over its reports, then pvi and
    calibrate over the tiers beside the clips, under ``root``.

    Returns the sha256 of every file written, keyed by its path below
    ``root``. Every command must exit 0, and every SVG, CSV and JSON file
    must be well-formed.
    """
    analyzed = root / "analyze"
    assert main(["analyze", *wavs, "--out", str(analyzed), "--jobs", str(jobs)]) == 0
    reports = sorted(str(p) for p in analyzed.glob("*_report.json"))
    for metric in METRICS:
        out = root / f"compare_{metric}"
        assert main(["compare", *reports, "--out", str(out), "--metric", metric,
                     "--permutations", "999"]) == 0
        for domain in CLUSTER_DOMAINS:
            out = root / f"cluster_{domain}_{metric}"
            assert main(["cluster", *reports, "--out", str(out), "--metric", metric,
                         "--domain", domain]) == 0
    tiers = Path(wavs[0]).parent
    for unit in ("s", "ms"):
        for tier in ("words", "constant"):
            assert main(["pvi", str(tiers / f"{tier}.csv"), "--out", str(root / f"pvi_{unit}"),
                         "--unit", unit]) == 0
    assert main(["calibrate", wavs[0], str(tiers / "words.csv"), str(tiers / "syllables.csv"),
                 "--out", str(root / "calibrate")]) == 0
    problems = _format_problems(root)
    assert not problems, "malformed outputs:\n" + "\n".join(problems)
    return _digests(root)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("golden_wavs"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_outputs_match_golden_digests(corpus, tmp_path, jobs):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.fail(
            f"golden.json was made with numpy {golden['numpy']}, this is numpy "
            f"{np.__version__}; rerun tests/golden/update.py and check the diff"
        )
    got = output_digests(corpus, tmp_path, jobs)
    want = golden["files"]
    moved = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    problems = [f"moved: {k}" for k in moved]
    problems += [f"not written: {k}" for k in missing]
    problems += [f"not in golden.json: {k}" for k in extra]
    assert not problems, f"--jobs {jobs}:\n" + "\n".join(problems)

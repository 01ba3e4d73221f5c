"""The benchmark traces program functions by module attribute name.

``perfbench/spans.py`` lists them in ``TARGETS``. A refactor that drops or
renames one breaks the benchmark's tracer, and one that stops calling it
through that name leaves a benchmark layer silently empty. The benchmark's
own tests are not part of this suite, so these tests check every name
resolves and is called by the CLI.
"""

import functools
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import harmonic_voice, write_wav
from rformant.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib only; defines TARGETS
    assert spans.TARGETS
    return [(module, attr) for module, attr, _, _ in spans.TARGETS]


def test_benchmark_traced_names_resolve(targets):
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_benchmark_traced_names_are_called(targets, tmp_path, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in targets:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counted(f"{module}.{attr}", getattr(mod, attr)))

    rate = 8000
    wavs = []
    for i, (f0, syllable_hz) in enumerate([(110.0, 3.0), (150.0, 4.5), (190.0, 6.0)]):
        x = harmonic_voice(lambda t, f0=f0: f0 * (1 + 0.1 * np.sin(2 * np.pi * t)),
                           rate, 3.5, syllable_hz=syllable_hz, seed=i)
        wavs.append(tmp_path / f"v{i}.wav")
        write_wav(wavs[-1], rate, x)
    clips = tmp_path / "clips"
    assert main(["analyze", *map(str, wavs), "--out", str(clips), "--jobs", "2"]) == 0
    reports = sorted(map(str, clips.glob("*_report.json")))
    assert main(["compare", *reports, "--out", str(tmp_path / "cmp"),
                 "--permutations", "99"]) == 0
    assert main(["cluster", *reports, "--out", str(tmp_path / "clu")]) == 0

    uncalled = [f"{module}.{attr}" for module, attr in targets if not calls[f"{module}.{attr}"]]
    assert not uncalled

"""In-memory span tracing around the program's layer boundaries.

The tracer replaces functions by wrappers *as the importing module sees
them* (``rformant.pipeline.amdf_f0``, ``rformant.cli.mantel``, ...), so
the program itself is not edited. Each call records a span: name, start,
end, parent span and root span (one root per clip or CLI step). Self time
is a span's duration minus the durations of its direct children.

Some counts are *computed* from a call's arguments by the formulas below
(AMDF lag-samples, FFT points, UPGMA pair scans); they describe the work
the algorithm is defined to do, not something the program counted.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import defaultdict


def _amdf_counts(args, kwargs, result):
    """Sum over lags tau of (N - tau), and the voiced/total frame counts."""
    sig = args[0]
    f0_min = kwargs.get("f0_min", 60.0)
    f0_max = kwargs.get("f0_max", 400.0)
    n = sig.samples.size
    tau_min = math.ceil(sig.rate / f0_max)
    tau_max = math.floor(sig.rate / f0_min)
    lags = tau_max - tau_min + 1
    lag_samples = lags * n - (tau_min + tau_max) * lags // 2
    values = result.values
    return {"lag_samples": lag_samples, "voiced": int((values > 0).sum()), "frames": int(values.size)}


def _fft_counts(args, kwargs, result):
    # one real FFT over the whole series (a SignalBuffer or a Track)
    series = args[0]
    values = getattr(series, "samples", None)
    return {"fft_points": (series.values if values is None else values).size}


def _svg_counts(args, kwargs, result):
    return {"svg_bytes": len(result.encode("utf-8"))}


def _write_counts(args, kwargs, result):
    return {"bytes": len(args[1].encode("utf-8")), "files": 1}


def _mantel_counts(args, kwargs, result):
    perms = args[2] if len(args) > 2 else kwargs.get("permutations", 9999)
    return {"permutations": int(perms)}


def _upgma_counts(args, kwargs, result):
    m = len(args[0].labels)
    return {"pair_scans": sum(k * (k - 1) // 2 for k in range(2, m + 1))}


# (module, attribute as that module imports it, span name, count hook)
TARGETS = (
    ("rformant.pipeline", "load_wav", "audio_io.load_wav", None),
    ("rformant.pipeline", "resample", "audio_io.resample", None),
    ("rformant.pipeline", "rectify", "demodulation.rectify", None),
    ("rformant.pipeline", "envelope_peak_pick", "demodulation.envelope", None),
    ("rformant.pipeline", "amdf_f0", "demodulation.amdf_f0", _amdf_counts),
    ("rformant.pipeline", "continuize_f0", "demodulation.continuize", None),
    ("rformant.pipeline", "long_term_spectrum", "lts.spectrum", _fft_counts),
    ("rformant.pipeline", "normalize_log_detrend", "lts.spectrum", None),
    ("rformant.pipeline", "top_n_frequencies", "profiles.peaks_bins", None),
    ("rformant.pipeline", "weighted_bins", "profiles.peaks_bins", None),
    ("rformant.pipeline", "rhythm_bars", "profiles.peaks_bins", None),
    ("rformant.pipeline", "analyze_signal", "pipeline.analyze_signal", None),
    ("rformant.cli", "analyze_clip", "pipeline.analyze_clip", None),
    ("rformant.cli", "clip_figure", "plots.clip_figure", _svg_counts),
    ("rformant.cli", "dendrogram_figure", "plots.dendrogram_figure", None),
    ("rformant.cli", "_spectra_csv", "cli.write", None),
    ("rformant.cli", "_bins_csv", "cli.write", None),
    ("rformant.cli", "_write", "cli.write", _write_counts),
    ("rformant.cli", "_load_report", "cli.report_load", None),
    ("rformant.cli", "distance_matrix", "stats.distance_matrix", None),
    ("rformant.cli", "mantel", "stats.mantel", _mantel_counts),
    ("rformant.cli", "upgma", "cluster.upgma", _upgma_counts),
)


class Tracer:
    """Collects spans from any thread; installs and removes wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = len(self.spans)
            root = self.spans[parent]["root"] if parent is not None else sid
            span = {"id": sid, "name": name, "parent": parent, "root": root,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            self.spans.append(span)
        stack.append(sid)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(self, module_name: str, attr: str, name: str, hook=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if hook is not None:
                span["counts"] = hook(args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, hook in targets:
            self.wrap(module_name, attr, name, hook)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_totals(span_lists) -> tuple[dict, dict, dict]:
    """Per span name over several traces: self seconds, calls, summed counts."""
    seconds, calls = defaultdict(float), defaultdict(int)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for spans in span_lists:
        own = self_times(spans)
        for s in spans:
            seconds[s["name"]] += own[s["id"]]
            calls[s["name"]] += 1
            for key, value in s["counts"].items():
                counts[s["name"]][key] += value
    return seconds, calls, counts


def busy_ratio(spans, name: str) -> float:
    """Summed duration of ``name`` spans over the wall time they cover."""
    sel = [s for s in spans if s["name"] == name]
    wall = max(s["end"] for s in sel) - min(s["start"] for s in sel)
    return sum(s["end"] - s["start"] for s in sel) / wall

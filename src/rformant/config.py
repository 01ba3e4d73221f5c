"""Analysis parameters, their defaults, and the config-file format.

Plain `key = value` lines, `#` starts a comment, unknown keys are
rejected outright so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .demodulation import F0_FRAME_MS


@dataclass(frozen=True)
class AnalysisConfig:
    trim_s: float = 5.0
    band_lo_hz: float = 1.0
    band_hi_hz: float = 10.0
    n_peaks: int = 6
    n_bins: int = 10
    f0_min_hz: float = 60.0
    f0_max_hz: float = 400.0
    mantel_permutations: int = 9999
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not self.band_lo_hz < self.band_hi_hz:
            raise ValueError(
                f"band_lo_hz must be below band_hi_hz, got "
                f"{self.band_lo_hz}:{self.band_hi_hz}"
            )
        if self.band_lo_hz < 0:
            raise ValueError("band_lo_hz must be nonnegative")
        for name in ("trim_s", "f0_min_hz", "f0_max_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.f0_min_hz < 2000.0 / F0_FRAME_MS:
            raise ValueError(
                f"f0_min_hz must be at least {2000.0 / F0_FRAME_MS:g}, so that the "
                f"{F0_FRAME_MS:g} ms F0 frame spans two periods; got {self.f0_min_hz}"
            )
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("n_peaks", "n_bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.mantel_permutations < 99:
            raise ValueError("mantel_permutations must be at least 99")
        if not self.f0_min_hz < self.f0_max_hz:
            raise ValueError("f0_min_hz must be below f0_max_hz")

    @property
    def band(self) -> tuple[float, float]:
        return (self.band_lo_hz, self.band_hi_hz)

    @classmethod
    def from_file(cls, path) -> "AnalysisConfig":
        path = Path(path)
        known = {f.name: f.type for f in dataclasses.fields(cls)}
        values = {}
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = int(text) if known[key] == "int" else float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse {text!r} as "
                                 f"{known[key]} for {key}") from None
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

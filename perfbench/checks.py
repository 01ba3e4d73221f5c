"""Correctness checks on the program's outputs against the corpus truth.

Every check returns a list of named failures (empty when it passes), so
the caller can count each one against the operations it attempted.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

import numpy as np

F0_TOLERANCE = 0.05
MANTEL_PAIRS = ("AMS:AEMS", "AMS:FEMS", "AEMS:FEMS")
_NEWICK_LEAF = re.compile(r"[(,]([^(),:;]+):")


def check_peaks(report: dict, syllable_hz: float) -> list[str]:
    """The top AMS and AEMS peaks lie within one spectral bin of the rate."""
    failures = []
    for domain in ("AMS", "AEMS"):
        dom = report["domains"].get(domain, {})
        if not dom.get("present") or not dom.get("peaks"):
            failures.append(f"peak:{report['label']}:{domain}:missing")
            continue
        top = dom["peaks"][0][0]
        if abs(top - syllable_hz) > dom["delta_f"] + 1e-9:
            failures.append(f"peak:{report['label']}:{domain}:{top:.3f}Hz vs {syllable_hz:.3f}Hz")
    return failures


def check_f0(label: str, f0_values: np.ndarray, f0_median_hz: float) -> list[str]:
    """The median voiced F0 lies within 5% of the generated median F0."""
    voiced = f0_values[f0_values > 0]
    if voiced.size == 0:
        return [f"f0:{label}:no voiced frames"]
    est = float(np.median(voiced))
    if abs(est / f0_median_hz - 1.0) > F0_TOLERANCE:
        return [f"f0:{label}:{est:.1f}Hz vs {f0_median_hz:.1f}Hz"]
    return []


def check_same_bytes(first: Path, again: Path, names) -> list[str]:
    """Files written by a rerun are byte-identical to the first run's."""
    failures = []
    for name in names:
        a, b = first / name, again / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            failures.append(f"rerun:{again.name}/{name}")
    return failures


def check_newick(text: str, labels) -> list[str]:
    """A complete Newick tree holding each expected leaf exactly once."""
    text = text.strip()
    if not text.endswith(";") or text.count("(") != text.count(")"):
        return ["newick:incomplete"]
    leaves = _NEWICK_LEAF.findall(text)
    if sorted(leaves) != sorted(labels):
        return [f"newick:leaves {len(leaves)} found, {len(set(leaves))} distinct, {len(labels)} expected"]
    return []


def check_mantel_csv(text: str) -> list[str]:
    """One row per domain pair, each with 0 < p <= 1."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if [r.get("pair") for r in rows] != list(MANTEL_PAIRS):
        return [f"mantel:pairs {[r.get('pair') for r in rows]}"]
    failures = []
    for row in rows:
        try:
            p = float(row["p"])
        except (TypeError, ValueError):
            p = float("nan")
        if not 0.0 < p <= 1.0:
            failures.append(f"mantel:{row['pair']}:p={p}")
    return failures


def load_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))

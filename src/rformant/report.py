"""The per-clip report: its JSON layout, its CSV tables, and its reader.

analyze writes each clip's report with to_json, spectra_csv and bins_csv;
compare and cluster read reports back with load and check_mergeable. No
other module knows the report layout. table writes every CSV file the CLI
makes, so one module knows the cell and line format.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

import numpy as np

from .lts import DOMAINS
from .pipeline import PAIRS
from .profiles import RFormantProfile

SCHEMA = 1


def to_json(rep) -> str:
    """The JSON text of one UtteranceReport, keys sorted."""
    domains = {domain: {"present": False} for domain in DOMAINS}
    for domain, prof in rep.profiles.items():
        domains[domain] = {"present": True, "delta_f": rep.spectra[domain].delta_f,
                           "peaks": [[f, w] for f, w in prof.peaks],
                           "bars": list(rep.bars[domain]), "bins": prof.bins.tolist()}
    data = {"schema": SCHEMA, "label": rep.label, "duration_s": rep.duration_s,
            "band": list(rep.band), "n_bins": rep.n_bins, "domains": domains,
            "pearson": dict(rep.pearson)}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


_CSV_SPECIAL = set(',"\r\n')


def _cell(x) -> str:
    """A CSV cell: text as it is, or double-quoted with each " doubled when it
    holds a comma, a quote, CR or LF (RFC 4180); a Python int with str; and
    any other number at full precision and independent of locale."""
    if isinstance(x, str):
        return '"' + x.replace('"', '""') + '"' if set(x) & _CSV_SPECIAL else x
    return str(x) if isinstance(x, int) else repr(float(x))


def table(header, rows) -> str:
    """CSV text: the header cells, then one LF-terminated line per row."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def spectra_csv(rep) -> str:
    """Every present domain's band spectrum, one frequency per line."""
    rows = [(domain, *fmr) for domain, spec in rep.spectra.items()
            for fmr in zip(spec.freqs, spec.magnitude, spec.residual)]
    return table(["domain", "freq_hz", "magnitude", "residual"], rows)


def bins_csv(rows, columns, key: str = "domain") -> str:
    """A ``key,<columns>`` header, then one ``name,<values>`` line per row:
    a clip's domains, one domain across clips, or a distance matrix."""
    return table([key, *columns], [(name, *values) for name, values in rows])


# what compare and cluster use of a report; profiles holds the present domains
SavedReport = namedtuple("SavedReport", "label band n_bins profiles pearson")


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")
    return float(value)


def _profile(data, domain, band) -> RFormantProfile | None:
    """One domain's profile, or None for an absent domain."""
    dom = data["domains"].get(domain)
    try:
        if not isinstance(dom, dict) or type(dom.get("present")) is not bool:
            raise ValueError("entry has no 'present' flag")
        if not dom["present"]:
            return None
        missing = [k for k in ("delta_f", "peaks", "bars", "bins") if k not in dom]
        if missing:
            raise ValueError(f"present but has no {', '.join(missing)}")
        if _number(dom["delta_f"], "delta_f") <= 0:
            raise ValueError("delta_f must be positive")
        if not all(band[0] <= _number(b, "bar") <= band[1] for b in dom["bars"]):
            raise ValueError(f"bars must lie in band {band}")
        peaks = tuple((_number(f, "peak"), _number(w, "peak")) for f, w in dom["peaks"])
        return RFormantProfile(data["label"], domain, peaks,
                               np.asarray(dom["bins"], dtype=np.float64), band, data["n_bins"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{domain}: {exc}") from None


def load(path) -> SavedReport:
    """Read one report and check every field to_json writes."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a report is a JSON object")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported report schema {data.get('schema')!r}")
    missing = [k for k in ("label", "duration_s", "band", "n_bins", "domains", "pearson")
               if k not in data]
    if missing:
        raise ValueError(f"{path}: report has no {', '.join(missing)}")
    for key in ("domains", "pearson"):
        if not isinstance(data[key], dict):
            raise ValueError(f"{path}: report {key} must be a JSON object")
    label, band, n_bins, pearson = data["label"], data["band"], data["n_bins"], data["pearson"]
    if not isinstance(label, str):
        raise ValueError(f"{path}: report label must be a string")
    try:
        _number(data["duration_s"], "duration_s")
        if type(n_bins) is not int or n_bins < 1:
            raise ValueError(f"n_bins must be a positive integer, got {n_bins!r}")
        if not isinstance(band, list) or len(band) != 2:
            raise ValueError(f"band must be [lo, hi], got {band!r}")
        band = (_number(band[0], "band"), _number(band[1], "band"))
        profiles = {d: p for d in DOMAINS if (p := _profile(data, d, band)) is not None}
        if not set(PAIRS) <= set(pearson):
            raise ValueError(f"pearson must hold {', '.join(PAIRS)}")
        pearson = {pair: None if pearson[pair] is None else _number(pearson[pair], f"pearson {pair}")
                   for pair in PAIRS}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"report {label!r}: {exc}") from None
    return SavedReport(label, band, n_bins, profiles, pearson)


def check_mergeable(reports) -> None:
    """Refuse reports that cannot share one table: repeated labels, or a
    band or bin count that differs from the first report's."""
    if len({rep.label for rep in reports}) != len(reports):
        raise ValueError("duplicate labels across reports")
    first = reports[0]
    for rep in reports[1:]:
        for key in ("band", "n_bins"):
            mine, theirs = getattr(rep, key), getattr(first, key)
            if mine != theirs:  # shown as the report files write them
                raise ValueError(
                    f"report {rep.label!r}: {key} {json.dumps(mine)} differs from "
                    f"{first.label!r} ({key} {json.dumps(theirs)})"
                )

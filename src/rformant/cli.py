"""Command-line front end.

Subcommands: analyze (WAV clips to reports, spectra, bins, and figure
panels), compare (Pearson and Mantel tables across reports), cluster
(UPGMA dendrogram over reports), pvi (variability indices from an
annotation file), calibrate (annotation-predicted vs measured rhythm
zone). Each subcommand accepts only the flags it reads, so any other flag
is a usage error. analyze, compare and calibrate read a config file
(--config, else $RFORMANT_CONFIG); cluster and pvi read none. All
CSV/JSON output is byte-identical across reruns with the same inputs,
config, and seed.

Exit codes: 0 success, 1 partial (some clips failed but at least one
succeeded), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .audio_io import AudioFileError
from .cluster import to_newick, upgma
from .config import AnalysisConfig
from .isochrony import (
    npvi,
    predict_formant_range,
    rates_from_annotation,
    read_annotation_csv,
    rpvi,
    wagner_pairs,
)
from .lts import AEMS, AMS, DOMAINS, FEMS
from .pipeline import PAIRS, analyze_clip
from .plots import clip_figure, dendrogram_figure
from .report import check_mergeable, table, to_json
# the benchmark (perfbench/spans.py) times _spectra_csv, _bins_csv, _write and
# _load_report by wrapping them here, so cli calls them by these names
from .report import bins_csv as _bins_csv, load as _load_report, spectra_csv as _spectra_csv
from .stats import correlation_summary, distance_matrix, mantel, significance_code

DOMAIN_FLAGS = {"ams": AMS, "aems": AEMS, "fems": FEMS}


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _print_notes(label: str, notes) -> None:
    for note in notes:
        print(f"warning: {label}: {note}", file=sys.stderr)


def _out_dir(args) -> Path:
    """The --out directory, made once a command's checks have passed."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _jobs(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


# Each flag's add_argument keywords. A flag that overrides the config
# stores under the AnalysisConfig field it sets, for load_config.
_FLAGS = {
    "--config": dict(metavar="PATH", help="config file (key = value lines); falls back to $RFORMANT_CONFIG"),
    "--out": dict(metavar="DIR", default="rformant_out", help="output directory (default: %(default)s)"),
    "--trim": dict(dest="trim_s", type=float, metavar="S", help="keep at most S seconds from each clip"),
    "--band": dict(metavar="LO:HI", help="analysis band in Hz, e.g. 1:10"),
    "--peaks": dict(dest="n_peaks", type=int, metavar="N", help="dominant frequencies per spectrum"),
    "--bins": dict(dest="n_bins", type=int, metavar="N", help="histogram bins over the band"),
    "--metric": dict(choices=("manhattan", "hamming"), default="manhattan", help="profile distance (default: %(default)s)"),
    "--permutations": dict(dest="mantel_permutations", type=int, metavar="N", help="Mantel permutation count"),
    "--seed": dict(type=int, metavar="N", help="random seed for permutation tests"),
    "--jobs": dict(type=_jobs, default=1, metavar="N", help="clips analyzed concurrently (default: 1)"),
    "--domain": dict(choices=sorted(DOMAIN_FLAGS), default="ams", help="domain for combined outputs and clustering (default: %(default)s)"),
    "--unit": dict(choices=("s", "ms"), default="s", help="duration unit for the raw index (default: s)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rformant",
        description="Low-frequency rhythm spectrum analysis of speech recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, usage_error=p.error)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        return p

    analysis = "--config --out --trim --band --peaks"
    p = command("analyze", cmd_analyze, "analyze WAV clips", analysis + " --bins --jobs --domain")
    p.add_argument("wavs", nargs="+", metavar="WAV")
    p = command("compare", cmd_compare, "correlation tables across reports",
                "--config --out --metric --permutations --seed")
    p.add_argument("reports", nargs="+", metavar="REPORT_JSON")
    p = command("cluster", cmd_cluster, "UPGMA dendrogram over reports", "--out --metric --domain")
    p.add_argument("reports", nargs="+", metavar="REPORT_JSON")
    p = command("pvi", cmd_pvi, "variability indices from an annotation CSV", "--out --unit")
    p.add_argument("annotation", metavar="ANNOTATION_CSV")
    p = command("calibrate", cmd_calibrate, "predicted vs measured rhythm zone", analysis)
    p.add_argument("wav", metavar="WAV")
    p.add_argument("words", metavar="WORDS_CSV")
    p.add_argument("syllables", metavar="SYLLABLES_CSV")
    return parser


def load_config(args) -> AnalysisConfig:
    path = args.config or os.environ.get("RFORMANT_CONFIG")
    cfg = AnalysisConfig.from_file(path) if path else AnalysisConfig()
    over = {k: v for k, v in vars(args).items()
            if k in AnalysisConfig.__dataclass_fields__ and v is not None}
    band = getattr(args, "band", None)
    if band is not None:
        try:
            over["band_lo_hz"], over["band_hi_hz"] = map(float, band.split(":"))
        except ValueError:
            raise ValueError(f"--band expects LO:HI, got {band!r}") from None
    return dataclasses.replace(cfg, **over) if over else cfg


# ---- analyze ----


def cmd_analyze(args) -> int:
    cfg = load_config(args)
    paths = list(args.wavs)
    stems = [Path(p).stem for p in paths]  # each clip's label, as load_wav names it
    if len(set(stems)) != len(stems):
        raise ValueError("duplicate clip labels in batch")
    if "combined" in stems:  # its bins table would be replaced by the batch's
        raise ValueError("clip label 'combined' is reserved for combined_bins.csv")
    out = _out_dir(args)
    domain = DOMAIN_FLAGS[args.domain]
    columns = [f"bin_{i}" for i in range(cfg.n_bins)]

    def run(path):
        """Analyze and write one clip; return its label, summary line, domain
        bins (None without that domain) and notes, or the clip's error."""
        try:
            # a name's undecodable bytes become surrogates, which no output can hold
            if any("\ud800" <= c <= "\udfff" for c in Path(path).stem):
                raise ValueError("file name is not valid UTF-8, so its label cannot be written")
            rep = analyze_clip(path, cfg)
            _write(out / f"{rep.label}_report.json", to_json(rep))
            _write(out / f"{rep.label}_spectra.csv", _spectra_csv(rep))
            _write(out / f"{rep.label}_bins.csv",
                   _bins_csv([(d, p.bins) for d, p in rep.profiles.items()], columns))
            _write(out / f"{rep.label}_panels.svg", clip_figure(rep, cfg))
        except (OSError, ValueError) as exc:  # a read, analysis or write error
            return exc
        absent = [d for d in DOMAINS if d not in rep.profiles]
        note = f" [{', '.join(absent)} absent]" if absent else ""
        bins = rep.profiles[domain].bins if domain in rep.profiles else None
        return rep.label, f"{rep.label}: {rep.duration_s:.2f} s{note}", bins, rep.notes

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(run, paths))
    failures = [(path, r) for path, r in zip(paths, results) if isinstance(r, Exception)]
    done = sorted((r for r in results if not isinstance(r, Exception)), key=lambda r: r[0])

    if done:
        rows = [(label, bins) for label, _, bins, _ in done if bins is not None]
        _write(out / "combined_bins.csv", _bins_csv(rows, columns, key="label"))
    for label, line, _, notes in done:
        print(line)
        _print_notes(label, notes)
    for path, exc in failures:
        # a file error already starts with its path; an analysis error does not
        named = exc if isinstance(exc, AudioFileError) else f"{path}: {exc}"
        # a file name's undecodable byte is shown as \udcXX on any stream
        print(f"failed: {named}".encode("utf-8", "backslashreplace").decode(), file=sys.stderr)

    if not done:
        return 2
    return 1 if failures else 0


# ---- compare / cluster ----


def _load_reports(paths) -> list:
    """Every report loaded and checked, sorted by label, before anything is written."""
    reports = sorted(map(_load_report, paths), key=lambda rep: rep.label)
    check_mergeable(reports)
    return reports


def cmd_compare(args) -> int:
    cfg = load_config(args)
    reports = _load_reports(args.reports)
    if len(reports) < 3:
        raise ValueError("compare needs at least 3 reports")
    out = _out_dir(args)

    head = ["mean_r", "min_label", "min_r", "max_label", "max_r"]
    rows = []
    for pair in PAIRS:
        values = {r.label: r.pearson[pair] for r in reports if r.pearson[pair] is not None}
        if values:
            s = correlation_summary(values)
            rows.append((pair, *(s[k] for k in head)))
    _write(out / "pearson_summary.csv", table(["pair", *head], rows))

    rows = []
    for pair in PAIRS:
        da, db = pair.split(":")
        shared = [rep for rep in reports if da in rep.profiles and db in rep.profiles]
        if len(shared) < 3:
            print(f"note: {pair}: fewer than 3 utterances share both domains; skipped",
                  file=sys.stderr)
            continue
        try:
            ma = distance_matrix([rep.profiles[da] for rep in shared], args.metric)
            mb = distance_matrix([rep.profiles[db] for rep in shared], args.metric)
            result = mantel(ma, mb, cfg.mantel_permutations, cfg.seed)
        except ValueError as exc:
            print(f"note: {pair}: {exc}; skipped", file=sys.stderr)
            continue
        code = significance_code(result["p"])
        rows.append((pair, result["r"], result["p"], code))
        print(f"{pair}: r={result['r']:.3f} p={result['p']:.4f} {code}")
    _write(out / "mantel.csv", table(["pair", "r", "p", "significance"], rows))
    return 0


def cmd_cluster(args) -> int:
    reports = _load_reports(args.reports)
    domain = DOMAIN_FLAGS[args.domain]
    profiles = [rep.profiles[domain] for rep in reports if domain in rep.profiles]
    for rep in reports:
        if domain not in rep.profiles:
            print(f"warning: {rep.label}: no {domain} profile; excluded", file=sys.stderr)
    if len(profiles) < 2:
        raise ValueError(f"need at least 2 reports with a {domain} profile")
    out = _out_dir(args)

    dm = distance_matrix(profiles, args.metric)
    tree = upgma(dm)

    _write(out / "distance_matrix.csv",
           _bins_csv(zip(dm.labels, dm.values), dm.labels, key="label"))

    newick = to_newick(tree)
    _write(out / "dendrogram.nwk", newick + "\n")
    _write(out / "dendrogram.svg",
           dendrogram_figure(tree, {p.label: p.bins for p in profiles}, profiles[0].band))
    print(newick)
    return 0


# ---- pvi / calibrate ----


def cmd_pvi(args) -> int:
    tier = read_annotation_csv(args.annotation)
    durations = tier.durations()  # pause intervals excluded
    if durations.size < 2:
        raise ValueError("need at least 2 non-pause intervals")
    scale = 1000.0 if args.unit == "ms" else 1.0
    d = durations * scale
    raw, norm = rpvi(d), npvi(d)
    rates = rates_from_annotation(tier)
    count, total, mean, rate = (rates[k] for k in ("count", "total_s", "mean_s", "rate_hz"))

    out = _out_dir(args)
    stem = Path(args.annotation).stem

    try:
        wagner = wagner_pairs(d)
    except ValueError:  # constant durations have no z-scores: empty quadrant cells
        wagner, q = None, ("",) * 4
    else:
        q = wagner["quadrant_counts"]  # Python ints, so table writes them as counts
        _write(out / f"{stem}_wagner.csv", table(["z_a", "z_b"], wagner["pairs"]))

    head = ["rpvi", "npvi", "count", "total_s", "mean_s", "rate_hz",
            "q_minus_minus", "q_minus_plus", "q_plus_minus", "q_plus_plus"]
    _write(out / f"{stem}_pvi.csv",
           table(head, [(raw, norm, count, total, mean, rate, *q)]))

    print(f"rPVI ({args.unit}): {raw:.2f}")
    print(f"nPVI: {norm:.2f}")
    print(f"count: {count}  total: {total:.3f} s  mean: {mean:.3f} s  rate: {rate:.2f} Hz")
    if wagner is not None:
        print(f"quadrants (-,-) {q[0]}  (-,+) {q[1]}  (+,-) {q[2]}  (+,+) {q[3]}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = load_config(args)
    word_rates = rates_from_annotation(read_annotation_csv(args.words))
    syll_rates = rates_from_annotation(read_annotation_csv(args.syllables))
    lo, hi, center = predict_formant_range(word_rates["rate_hz"], syll_rates["rate_hz"])

    report = analyze_clip(args.wav, cfg)
    _print_notes(report.label, report.notes)
    if AMS not in report.profiles:
        raise ValueError(f"{report.label}: no AMS profile to calibrate against")
    peaks = [f for f, _ in report.profiles[AMS].peaks]
    measured_lo, measured_hi = min(peaks), max(peaks)
    measured_center = (measured_lo + measured_hi) / 2.0
    err = abs(center - measured_center)

    out = _out_dir(args)
    payload = {
        "schema": 1,
        "label": report.label,
        "word_rate_hz": word_rates["rate_hz"],
        "syllable_rate_hz": syll_rates["rate_hz"],
        "predicted": {"lo_hz": lo, "hi_hz": hi, "center_hz": center},
        "measured": {
            "peaks_hz": peaks,
            "lo_hz": measured_lo,
            "hi_hz": measured_hi,
            "center_hz": measured_center,
        },
        "center_error_hz": err,
    }
    _write(out / "calibration.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(f"word rate: {word_rates['rate_hz']:.2f} Hz  "
          f"syllable rate: {syll_rates['rate_hz']:.2f} Hz")
    print(f"predicted zone: {lo:.2f}-{hi:.2f} Hz, center {center:.2f} Hz")
    print(f"measured peaks: {measured_lo:.2f}-{measured_hi:.2f} Hz, "
          f"center {measured_center:.2f} Hz")
    print(f"center error: {err:.2f} Hz")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the parser that met the first unknown flag refuses it, with its own usage
        before_command = argv.index(args.command) > 0
        error = parser.error if before_command else args.usage_error
        error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:  # file, audio, JSON and input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

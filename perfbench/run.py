"""rformant benchmark: seeded corpus in, timed CLI and library calls out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program measured is the
checkout's own ``src/rformant`` (it is not installed). The benchmark
writes the seeded WAV corpus and every program output under
``.perfbench_work/`` in the checkout and deletes it at exit.

Workloads (see BENCHMARK.json for why each exists):

* ``analyze_hi_rate``: 7 speech-like clips at 44.1/48 kHz, CLI
  ``analyze --jobs 2``, then ``compare`` and ``cluster`` over the reports.
* ``analyze_lo_rate``: 15 clips at 16 kHz (every fourth at 8 kHz), CLI
  ``analyze --jobs 1``, then ``compare`` and ``cluster``.
* ``cohort``: 200 reports made in set-up from cheap 8 kHz clips, then CLI
  ``compare`` (9999 permutations) and ``cluster`` over all 200.

Every workload also runs a serial ``rformant.analyze_clip`` loop in this
process for per-clip latency. All load is closed loop from this one
process; CLI children use at most ``--jobs 2`` threads.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` one untraced and one traced pass of the same work give
per-layer self times, computed counts and the tracing overhead.
"""

from __future__ import annotations

import os

# One BLAS thread per worker, set before numpy loads here or in a child, so
# that --jobs alone sets the thread count. With OpenBLAS's default of one
# spinning thread per core, a neighbour's load stretched one compare_s
# from 15 s to 79 s on the 2-core machine this benchmark was tuned on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

NOMINAL_S = 30  # phase counts below are sized for this --seconds
SETUP_IMPORTS = 3
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it


@dataclass(frozen=True)
class Workload:
    specs: object  # n -> list[corpus.ClipSpec]
    n_clips: int  # clips generated
    batch: int  # clips per CLI analyze call
    jobs: int
    batches: int  # CLI analyze calls
    # serial library calls, cycling over the clips; with an odd clip count
    # and whole sweeps, neither the median nor the tail rank falls on the
    # boundary between two clips' groups of repeated samples
    latency_calls: int  # per block
    compares: int
    clusters: int
    cohort: bool = False  # compare/cluster the set-up reports of every clip
    # latency blocks spread over the run; the tail is the median of the
    # blocks' tails, so one burst of machine noise does not set it
    latency_blocks: int = 1


WORKLOADS = {
    "analyze_hi_rate": Workload(corpus.hi_rate_specs, 7, 7, 2, 3, 28, 3, 7),
    "analyze_lo_rate": Workload(corpus.lo_rate_specs, 15, 15, 1, 3, 60, 5, 7),
    "cohort": Workload(corpus.cheap_specs, 200, 12, 2, 7, 60, 1, 7, cohort=True, latency_blocks=3),
}

CLIP_FILES = ("_report.json", "_spectra.csv", "_bins.csv", "_panels.svg")
COMPARE_FILES = ("pearson_summary.csv", "mantel.csv")
CLUSTER_FILES = ("distance_matrix.csv", "dendrogram.nwk", "dendrogram.svg")

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_clips_per_s": "1/s",
    "clip_ms_p50": "ms",
    "clip_ms_tail": "ms",
    "compare_s": "s",
    "cluster_s": "s",
    "peak_rss_mb": "MB",
}


def import_checkout():
    """Import rformant from this checkout's src, never from elsewhere."""
    if not (SRC / "rformant" / "__init__.py").is_file():
        raise SystemExit(f"error: no rformant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rformant

    where = Path(rformant.__file__).resolve()
    if ROOT not in where.parents:
        raise SystemExit(f"error: imported rformant from {where}, outside {ROOT}")
    return rformant


class Bench:
    """Operation accounting, child processes and the phases of one run."""

    def __init__(self, work: Path, rformant):
        self.work = work
        self.rformant = rformant
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self._n_logs = 0

    def op(self, failures) -> bool:
        """Count one operation; it failed if it produced any named failure."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(failures)
        return not failures

    def spawn(self, cmds, cli=True) -> list[float]:
        """Run commands concurrently to completion; wall seconds of each.

        Peak RSS is read per child from ``wait4``: RUSAGE_CHILDREN would be
        a running maximum over every child so far.
        """
        procs = []
        t0 = time.perf_counter()
        for cmd in cmds:
            self._n_logs += 1
            log = open(self.work / f"child{self._n_logs:04d}.log", "wb")
            procs.append((cmd, log, subprocess.Popen(
                cmd, cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT)))
        walls = []
        for cmd, log, proc in procs:
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                log.close()
            walls.append(time.perf_counter() - t0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if cli:
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            name = cmd[3] if cli else "import"
            self.op([] if proc.returncode == 0 else [f"child:{name}:exit {proc.returncode}:{log.name}"])
        return walls

    def cli(self, args, trace_to: Path | None = None) -> float:
        if trace_to is None:
            cmd = [sys.executable, "-m", "rformant.cli", *map(str, args)]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_to), *map(str, args)]
        return self.spawn([cmd])[0]

    @staticmethod
    def flush(directory: Path) -> None:
        """Write this run's files under ``directory`` to disk, untimed.

        Left in the page cache, the megabytes each phase writes were
        flushed during the next timed phase and showed up as its latency.
        """
        for path in directory.rglob("*"):
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    # ---- phases ----

    def setup_s(self) -> float:
        """Wall time of a fresh interpreter importing rformant.cli."""
        # the in-process import has already byte-compiled the checkout
        return self.spawn([[sys.executable, "-c", "import rformant.cli"]], cli=False)[0]

    def check_reports(self, truths, out: Path) -> None:
        """One operation per clip (its report exists), one per peak check."""
        for t in truths:
            path = out / f"{t.label}_report.json"
            if self.op([] if path.is_file() else [f"analyze:{t.label}:no report"]):
                self.op(checks.check_peaks(checks.load_report(path), t.syllable_hz))

    def analyze(self, truths, out: Path, jobs: int, trace_to=None) -> float:
        wall = self.cli(["analyze", *[t.path for t in truths], "--out", out, "--jobs", jobs], trace_to)
        self.flush(out)
        self.check_reports(truths, out)
        return wall

    def compare(self, reports, out: Path, trace_to=None) -> float:
        wall = self.cli(["compare", *reports, "--out", out], trace_to)
        self.flush(out)
        mantel = out / "mantel.csv"
        self.op(checks.check_mantel_csv(mantel.read_text()) if mantel.is_file() else ["mantel:no mantel.csv"])
        return wall

    def cluster(self, reports, labels, out: Path, trace_to=None) -> float:
        wall = self.cli(["cluster", *reports, "--out", out], trace_to)
        self.flush(out)
        nwk = out / "dendrogram.nwk"
        self.op(checks.check_newick(nwk.read_text(), labels) if nwk.is_file() else ["newick:no file"])
        return wall

    def latency(self, truths, calls: int, tracer=None) -> list[float]:
        """Serial library calls cycling over the clips; ms per call."""
        analyze_clip = self.rformant.analyze_clip
        checked = set()
        out = []
        for i in range(calls):
            t = truths[i % len(truths)]
            span = tracer.begin("pipeline.analyze_clip") if tracer else None
            t0 = time.perf_counter()
            try:
                rep = analyze_clip(t.path)
            except Exception as exc:  # a failed clip is counted, the loop goes on
                self.op([f"library:{t.label}:{type(exc).__name__}: {exc}"])
                continue
            finally:
                if span:
                    tracer.end(span)
            out.append(1000 * (time.perf_counter() - t0))
            self.op([])
            if t.label not in checked:
                checked.add(t.label)
                self.op(checks.check_f0(t.label, rep.f0_track.values, t.f0_median_hz))
        return out


def scaled(n: int, seconds: float, least: int = 1) -> int:
    return max(least, round(n * seconds / NOMINAL_S))


def interleave(counts: dict) -> list[str]:
    """Phase names, each repeated its count, spread evenly over the run.

    Machine speed drifts over tens of seconds; spreading every phase's
    calls over the whole run keeps one slow stretch from moving a whole
    metric.
    """
    slots = sorted(((i + 0.5) / n, name) for name, n in counts.items() for i in range(n))
    return [name for _, name in slots]


def tail(samples) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and its value."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND  # samples at or below the tail value
    if k < 1:
        return 0.0, float("nan")
    return 100.0 * k / len(s), s[k - 1]


class Run:
    """Set-up and the measured phases of one workload and seed."""

    def __init__(self, name: str, seed: int, seconds: float, bench: Bench):
        self.w = WORKLOADS[name]
        self.seconds = seconds
        self.bench = bench
        work = bench.work
        specs = self.w.specs(self.w.n_clips)
        self.truths = corpus.write_corpus(work / "wav", specs, seed, "c")
        bench.flush(work / "wav")
        self.batch = self.truths[: self.w.batch]
        self.first_out = None
        if self.w.cohort:
            # two concurrent single-threaded children fill both cores
            half = len(self.truths) // 2
            parts = [self.truths[:half], self.truths[half:]]
            outs = [work / "cohort_a", work / "cohort_b"]
            bench.spawn([[sys.executable, "-m", "rformant.cli", "analyze",
                          *[str(t.path) for t in part], "--out", str(out), "--jobs", "1"]
                         for part, out in zip(parts, outs)])
            for part, out in zip(parts, outs):
                bench.flush(out)
                bench.check_reports(part, out)
            self.first_out = outs[0]
            self.cohort_reports = [o / f"{t.label}_report.json" for p, o in zip(parts, outs) for t in p]

    def _reports(self):
        """Report paths and labels that compare and cluster work on."""
        if self.w.cohort:
            return self.cohort_reports, [t.label for t in self.truths]
        return [self.first_out / f"{t.label}_report.json" for t in self.batch], [t.label for t in self.batch]

    def _analyze_checked(self, tag: str, trace_to=None) -> float:
        out = self.bench.work / tag
        wall = self.bench.analyze(self.batch, out, self.w.jobs, trace_to)
        if self.first_out is None:
            self.first_out = out
        else:
            names = [t.label + suffix for t in self.batch for suffix in CLIP_FILES]
            if not self.w.cohort:
                names.append("combined_bins.csv")
            self.bench.op(checks.check_same_bytes(self.first_out, out, names))
        return wall

    def end_to_end(self) -> dict:
        b, w, s = self.bench, self.w, self.seconds
        n_calls = scaled(w.latency_calls, s, least=TAIL_BEYOND + 1)
        samples = {"setup": [], "latency": [], "analyze": [], "compare": [], "cluster": []}
        first = {}

        def latency_block():
            """Serial library calls, after one untimed call to warm the process."""
            start = len(samples["latency"]) * n_calls
            b.latency(self.batch[:1], 1)
            clips = [self.truths[(start + i) % len(self.truths)] for i in range(n_calls)]
            samples["latency"].append(b.latency(clips, n_calls))

        def rerun(phase, files, call):
            """One timed CLI call; its files must match the phase's first call's."""
            out = b.work / f"{phase}{len(samples[phase])}"
            samples[phase].append(call(out))
            if phase in first:
                b.op(checks.check_same_bytes(first[phase], out, files))
            first.setdefault(phase, out)

        steps = {
            "setup": lambda: samples["setup"].append(b.setup_s()),
            "latency": latency_block,
            "analyze": lambda: samples["analyze"].append(
                len(self.batch) / self._analyze_checked(f"analyze{len(samples['analyze'])}")),
            "compare": lambda: rerun("compare", COMPARE_FILES,
                                     lambda out: b.compare(self._reports()[0], out)),
            "cluster": lambda: rerun("cluster", CLUSTER_FILES,
                                     lambda out: b.cluster(*self._reports(), out)),
        }
        counts = {"setup": SETUP_IMPORTS, "latency": w.latency_blocks, "analyze": scaled(w.batches, s),
                  "compare": scaled(w.compares, s), "cluster": scaled(w.clusters, s)}
        order = interleave(counts)
        # compare and cluster need a batch's reports; the first latency block
        # runs before any CLI child, whose writeback once slowed it
        for phase in ("analyze", "latency") if self.first_out is None else ("latency",):
            order.remove(phase)
            order.insert(0, phase)
        for phase in order:
            steps[phase]()
        setup_samples, rates = samples["setup"], samples["analyze"]
        compares, clusters = samples["compare"], samples["cluster"]
        blocks = samples["latency"]
        lat = [ms for block in blocks for ms in block]
        pct = tail(blocks[0])[0]
        tail_ms = statistics.median(tail(block)[1] for block in blocks)
        print(f"clip latency: {len(blocks)} x {n_calls} samples, tail = p{pct:.1f} (median over blocks)")
        for name, vals in (("analyze_clips_per_s", rates), ("compare_s", compares),
                           ("cluster_s", clusters), ("setup_s", setup_samples)):
            print(f"{name} samples: " + " ".join(f"{v:.4g}" for v in vals))
        values = {
            "setup_s": statistics.median(setup_samples),
            "analyze_clips_per_s": statistics.median(rates),
            "clip_ms_p50": statistics.median(lat) if lat else float("nan"),
            "clip_ms_tail": tail_ms,
            "compare_s": statistics.median(compares),
            "cluster_s": statistics.median(clusters),
            "peak_rss_mb": b.peak_rss_kb / 1024.0,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def _pass(self, tag: str, tracer=None) -> tuple[dict, Path | None]:
        """One analyze, compare, cluster and library sweep; wall seconds of each."""
        b = self.bench
        trace_dir = b.work / f"spans_{tag}" if tracer else None
        if trace_dir:
            trace_dir.mkdir()
        to = (lambda name: trace_dir / f"{name}.json") if trace_dir else (lambda name: None)
        walls = {"analyze": self._analyze_checked(f"{tag}_analyze", to("analyze"))}
        reports, labels = self._reports()
        walls["compare"] = b.compare(reports, b.work / f"{tag}_compare", to("compare"))
        walls["cluster"] = b.cluster(reports, labels, b.work / f"{tag}_cluster", to("cluster"))
        if tracer:
            tracer.install()
        try:
            walls["library"] = sum(b.latency(self.batch, len(self.batch), tracer)) / 1000
        finally:
            if tracer:
                tracer.restore()
        return walls, trace_dir

    def per_layer(self) -> dict:
        b = self.bench
        setup = statistics.median(b.setup_s() for _ in range(SETUP_IMPORTS))
        b.latency(self.batch[:1], 1)
        plain, _ = self._pass("plain")
        tracer = spans.Tracer()
        traced, trace_dir = self._pass("traced", tracer)
        loaded = {"library": {"spans": tracer.spans, "absent": tracer.absent}}
        for name in ("analyze", "compare", "cluster"):
            path = trace_dir / f"{name}.json"
            loaded[name] = json.loads(path.read_text()) if path.is_file() else {"spans": [], "absent": []}
        metrics = layer_metrics(loaded)
        plain_s, traced_s = sum(plain.values()), sum(traced.values())
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
        report_attribution(loaded, traced["compare"] - setup)
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(loaded: dict) -> dict:
    """Per-layer metrics from the spans of every traced source."""
    seconds, calls, counts = spans.layer_totals(data["spans"] for data in loaded.values())
    clips = calls.get("pipeline.analyze_signal", 0)
    out = {}

    def per_clip_ms(metric, name):
        if clips and name in calls:
            out[metric] = (1000.0 * seconds[name] / clips, "ms")

    def per_call(metric, name):
        if calls.get(name):
            out[metric] = (1000.0 * seconds[name] / calls[name], "ms")

    def count(metric, name, key, denom, unit):
        if denom and key in counts[name]:
            out[metric] = (counts[name][key] / denom, unit)

    per_clip_ms("audio_io.load_wav_ms", "audio_io.load_wav")
    per_clip_ms("audio_io.resample_ms", "audio_io.resample")
    per_clip_ms("demodulation.amdf_f0_ms", "demodulation.amdf_f0")
    count("demodulation.amdf_lag_samples", "demodulation.amdf_f0", "lag_samples",
          calls.get("demodulation.amdf_f0"), "computed_count")
    count("demodulation.voiced_frac", "demodulation.amdf_f0", "voiced",
          counts["demodulation.amdf_f0"].get("frames"), "ratio")
    per_clip_ms("demodulation.envelope_ms", "demodulation.envelope")
    per_clip_ms("demodulation.rectify_ms", "demodulation.rectify")
    per_clip_ms("demodulation.continuize_ms", "demodulation.continuize")
    per_clip_ms("lts.spectrum_ms", "lts.spectrum")
    count("lts.fft_points", "lts.spectrum", "fft_points", clips, "computed_count")
    per_clip_ms("profiles.peaks_bins_ms", "profiles.peaks_bins")
    per_clip_ms("pipeline.analyze_signal_self_ms", "pipeline.analyze_signal")
    per_call("plots.clip_figure_ms", "plots.clip_figure")
    count("plots.svg_bytes", "plots.clip_figure", "svg_bytes", calls.get("plots.clip_figure"), "bytes")
    files = counts["cli.write"].get("files")
    if files:
        out["cli.write_ms"] = (1000.0 * seconds["cli.write"] / files, "ms")
        out["cli.bytes_written"] = (counts["cli.write"]["bytes"], "bytes")
    analyze_spans = loaded["analyze"]["spans"]
    if any(s["name"] == "pipeline.analyze_clip" for s in analyze_spans):
        out["cli.pool_busy_ratio"] = (spans.busy_ratio(analyze_spans, "pipeline.analyze_clip"), "ratio")
    per_call("stats.mantel_ms", "stats.mantel")
    if seconds.get("stats.mantel"):
        out["stats.mantel_perms_per_s"] = (counts["stats.mantel"]["permutations"] / seconds["stats.mantel"], "1/s")
    per_call("stats.distance_matrix_ms", "stats.distance_matrix")
    per_call("cluster.upgma_ms", "cluster.upgma")
    count("cluster.upgma_pair_scans", "cluster.upgma", "pair_scans", calls.get("cluster.upgma"), "computed_count")
    per_call("plots.dendrogram_figure_ms", "plots.dendrogram_figure")
    per_call("cli.report_load_ms", "cli.report_load")
    absent = sorted({a for data in loaded.values() for a in data["absent"]})
    if absent:
        print("absent layers: " + ", ".join(absent))
    return out


def report_attribution(loaded: dict, compare_after_setup_s: float) -> None:
    """Print the shares the trace attributes to the dominant layers."""
    def total(data, name):
        return sum(s["end"] - s["start"] for s in data["spans"] if s["name"] == name)

    sig = sum(total(d, "pipeline.analyze_signal") for d in loaded.values())
    amdf = sum(total(d, "demodulation.amdf_f0") for d in loaded.values())
    if sig:
        print(f"attribution: amdf_f0 is {100 * amdf / sig:.1f}% of analyze_signal time")
    mantel = total(loaded["compare"], "stats.mantel")
    print(f"attribution: mantel is {100 * mantel / compare_after_setup_s:.1f}% "
          "of traced compare wall time minus setup_s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=NOMINAL_S)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    rformant = import_checkout()
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = base / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        bench = Bench(work, rformant)
        run = Run(args.workload, args.seed, args.seconds, bench)
        metrics = run.per_layer() if args.trace else run.end_to_end()
        # a metric with no samples (every call failed) is left out, not NaN
        metrics = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is still using it
    failed = bench.failed
    for name in bench.failures:
        print(f"FAILED {name}")
    print(f"{args.workload} seed={args.seed}: {bench.attempted} operations, "
          f"failed_frac={failed / bench.attempted:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

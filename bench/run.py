"""Benchmark of the ``polysym`` package: end to end and layer by layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload {sweep,census,classify,gallery} \
        --seed N --seconds S --trace {0,1} [--smoke]

The benchmark imports ``polysym`` from ``src/`` (nothing is installed)
and repeats the workload's checked job list (see ``workloads.py``) for
``--seconds``, reporting medians over those passes.  The last line of
stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(cold start of a fresh interpreter that imports ``polysym`` and builds
the CLI parser, median of ``SETUP_REPS`` spread between the passes),
``wall_s`` (one checked pass), ``op_p50_ms`` and ``op_p90_ms``
(per-command latency percentiles of a pass; a pass holds few distinct
commands, and a percentile pooled over passes would land on the edge
between two of them), ``cpu_s`` (user + system CPU of this process and
its pool workers per pass) and ``peak_rss_mb`` (peak RSS of this
process over all passes plus that of its largest pool worker).
``failed`` / ``attempted`` is the command error rate.

With ``--trace 1`` untraced and traced passes alternate for half of
``--seconds``, the ladders take roughly the other half, and the
metrics are the per-layer ones: self time and call count of each of the
six modules, exact work counts, the tracing overhead, and the size
ladders of ``ladders.py``.  The detailed report (environment, load and
calibration before and after, output digests, sample counts) and, when
traced, the spans are written under ``bench/_out/``.

``--smoke`` runs every workload and ladder at tiny sizes; the
benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

SETUP_REPS = 36
SETUP_CODE = "import polysym.cli as cli; cli.build_parser()"
CALIBRATION_LOOPS = 2_000_000

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "census", "classify", "gallery")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and noise record (all read-only)


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_sha() -> str | None:
    # the ceiling keeps git from taking a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_sha": _git_sha(),
    }


def loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: shows machine drift next to the numbers."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i & 7
    return time.perf_counter() - start


def setup_seconds(reps: int) -> list[float]:
    """Cold start times of a fresh interpreter importing polysym and building the parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# measurement


def measure(jobs, seconds: float, scratch: str, reps: int, tracer=None) -> tuple[list, list, list]:
    """Checked passes, each followed by a batch of cold starts, within ``seconds``.

    The batch size spreads ``reps`` cold starts over the passes the first
    one predicts; any still missing at the end are taken then.  With a
    tracer, untraced and traced passes alternate (at least one of
    each); the tracer keeps only the spans of the last traced pass.
    """
    from workloads import run_pass

    plain, traced, setup = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    batch = None
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.clear()
            with tracer:
                result = run_pass(jobs, scratch)
            traced.append(result)
        else:
            result = run_pass(jobs, scratch)
            plain.append(result)
        if batch is None:
            expected_passes = max(1, int(seconds // (time.perf_counter() - start)))
            batch = math.ceil(reps / expected_passes)
        setup += setup_seconds(min(batch, reps - len(setup)))
        step = result.wall_s + (reps - len(setup)) * statistics.median(setup or [0.0])
        enough = plain and (tracer is None or traced)
        if enough and time.perf_counter() + step > deadline:
            setup += setup_seconds(reps - len(setup))
            return plain, traced, setup


def peak_rss_mb(plain: list) -> tuple[float, float]:
    """This process's peak over all passes, and its largest child's in the
    first pass: the cold starts that follow each pass are children too."""
    return plain[-1].peak_rss_mb[0], plain[0].peak_rss_mb[1]


def end_to_end(plain: list, setup: list[float]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(setup),
        "wall_s": med(p.wall_s for p in plain),
        "op_p50_ms": med(percentile(p.latencies_s, 0.5) for p in plain) * 1e3,
        "op_p90_ms": med(percentile(p.latencies_s, 0.9) for p in plain) * 1e3,
        "cpu_s": med(p.cpu_s for p in plain),
        "peak_rss_mb": sum(peak_rss_mb(plain)),
    }


def per_layer(tracer, plain: list, traced: list, error_rate: float, ladder: dict) -> dict:
    from tracer import LAYERS, summarize

    summary = summarize(tracer.spans)
    names, counts = summary["names"], tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["layers"][layer]["self_s"]
        out[f"{layer}.calls"] = summary["layers"][layer]["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["oracle.sweep_period3.triples"] = counts["sweep.objects"]
    out["oracle.sweep_period3.classes_per_triple"] = ratio(counts["sweep.classes"], counts["sweep.objects"])
    out["oracle.census_full.cycles"] = counts["census.objects"]
    out["oracle.census_full.classes_per_cycle"] = ratio(counts["census.classes"], counts["census.objects"])
    out["oracle.theorem_classes.self_s"] = sum(
        names.get(f"oracle.theorem_{fam}_classes", {}).get("self_s", 0.0)
        for fam in ("axial", "circular")
    )
    out["enumeration.records"] = counts["records"]
    out["render.svg_bytes"] = counts["svg_bytes"]
    out["render.bytes_per_s"] = ratio(
        counts["svg_bytes"], names.get("render.gallery_svg", {}).get("total_s", 0.0)
    )
    out["cli.stdout_bytes"] = traced[-1].stdout_bytes
    # from as few as one pair of passes (see trace_overhead_pairs in the
    # report): pass-to-pass noise can swamp it
    out["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in plain
    )
    out["error_rate"] = error_rate
    out.update(ladder)
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "polysym" / "cli.py").is_file():
        print(f"error: no polysym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polysym

    if Path(polysym.__file__).resolve().parent != SRC / "polysym":
        print(f"error: imported polysym from {polysym.__file__}", file=sys.stderr)
        return 2
    import ladders
    import workloads
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    size = "smoke" if args.smoke else "full"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "environment": environment(),
        "loadavg_before": loadavg(),
        "calibration_before_s": calibrate(),
    }
    jobs = workloads.build(args.workload, args.seed, size)
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)
    tracer = Tracer() if args.trace else None
    try:
        # a traced run leaves about half its time to the ladders, and
        # takes no cold starts: it reports no setup_s
        seconds = args.seconds / 2 if args.trace else args.seconds
        reps = 0 if args.trace else SETUP_REPS
        plain, traced, setup = measure(jobs, seconds, scratch, reps, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    passes = plain + traced
    attempted = sum(len(p.latencies_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = sorted({p.digest for p in passes})
    report.update(
        {
            "jobs": len(jobs),
            "passes": len(plain),
            "traced_passes": len(traced),
            "wall_s": [p.wall_s for p in plain],
            "traced_wall_s": [p.wall_s for p in traced],
            "latency_samples_per_pass": len(jobs),
            "setup_s": setup,
            "peak_rss_self_children_mb": peak_rss_mb(plain),
            "digests": digests,
            "failures": failures[:20],
            "loadavg_after": loadavg(),
            "calibration_after_s": calibrate(),
        }
    )
    if args.trace:
        metrics = per_layer(tracer, plain, traced, len(failures) / attempted, ladders.run(size))
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["trace_overhead_pairs"] = min(len(plain), len(traced))
    else:
        metrics = end_to_end(plain, setup)
    report["metrics"] = metrics
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {report_path.relative_to(ROOT)}", file=sys.stderr)
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

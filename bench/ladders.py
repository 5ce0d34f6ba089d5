"""Per-layer size ladders, timed with tracing off.

Each rung calls one layer's public function at a fixed input size and
reports the median time of a few calls.  The log-log slope over the top
rungs is reported next to the times, so an algorithmic change shows up
as a change in the exponent rather than only as a faster number.

Inputs are fixed (not seeded) so that rungs compare across runs and
commits.  The smoke sizes keep the rung labels of the full sizes but
use tiny inputs; they exist only for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time

from polysym import classification, cli, enumeration, oracle, polygon_core, render

from tracer import Tracer, summarize
from workloads import jobs_count

SIZES = {
    "full": {
        "sweep": {"m10": 10, "m20": 20, "m30": 30, "m40": 40},
        "census": {"n9": 9, "n10": 10, "n11": 11},
        "kernel": {"n33": 33, "n303": 303, "n903": 903},
        "enum_circular": {"m40": 40, "m60": 60},
        "enum_axial": {"m40": 40},
        "render_m": 20,
    },
    "smoke": {
        "sweep": {"m10": 4, "m20": 5, "m30": 6, "m40": 7},
        "census": {"n9": 6, "n10": 7, "n11": 8},
        "kernel": {"n33": 15, "n303": 21, "n903": 33},
        "enum_circular": {"m40": 6, "m60": 8},
        "enum_axial": {"m40": 6},
        "render_m": 4,
    },
}

MIN_TOTAL_S = 0.2  # repeat a rung until this much time is spent ...
MAX_REPS = 5  # ... or this many calls were made


def _time(fn, *args) -> float:
    times = []
    while not times or (sum(times) < MIN_TOTAL_S and len(times) < MAX_REPS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slope(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _axial_tuple(n: int) -> polygon_core.SideTuple:
    """(1, 4, 1) * m: an axial polygon for every odd m (its winding number is 2)."""
    return polygon_core.SideTuple(n, (1, 4, 1) * (n // 3))


def _profile(t: polygon_core.SideTuple):
    return polygon_core.symmetry_profile(polygon_core.edge_set(polygon_core.validate_walk(t)))


def _validate_calls_per_classify(n: int) -> float:
    """validate_walk calls made by one ``polysym classify`` command."""
    t = _axial_tuple(n)
    argv = ["classify", "--n", str(n), "--sides", ",".join(map(str, t.sides))]
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"classify probe exited {rc}")
    return summarize(tracer.spans)["names"]["polygon_core.validate_walk"]["calls"]


def run(size: str = "full") -> dict[str, float]:
    """Every ladder metric, by name."""
    cfg = SIZES[size]
    out: dict[str, float] = {}

    sweep = {label: _time(oracle.sweep_period3, m) for label, m in cfg["sweep"].items()}
    for label, secs in sweep.items():
        out[f"oracle.sweep_period3.{label}_s"] = secs
    top = list(cfg["sweep"])[-3:]
    out["oracle.sweep_period3.exponent"] = slope(
        [cfg["sweep"][k] for k in top], [sweep[k] for k in top]
    )
    # jobs=1 rung time over the same call on the worker pool
    jobs = jobs_count()
    out["oracle.sweep_period3.jobs2_speedup"] = sweep["m30"] / _time(
        oracle.sweep_period3, cfg["sweep"]["m30"], jobs
    )

    census = {label: _time(oracle.census_full, n) for label, n in cfg["census"].items()}
    for label, secs in census.items():
        out[f"oracle.census_full.{label}_s"] = secs
    out["oracle.census_full.jobs2_speedup"] = census["n11"] / _time(
        oracle.census_full, cfg["census"]["n11"], jobs
    )

    kernel = cfg["kernel"]
    classify_times = []
    for label, n in kernel.items():
        t = _axial_tuple(n)
        out[f"polygon_core.symmetry_profile.{label}_s"] = _time(_profile, t)
        out[f"polygon_core.canonical_form.{label}_s"] = _time(polygon_core.canonical_form, t)
        classify_times.append(_time(classification.classify, t))
        out[f"classification.classify.{label}_s"] = classify_times[-1]
    out["classification.classify.exponent"] = slope(list(kernel.values())[-2:], classify_times[-2:])
    out["polygon_core.validate_walk.calls_per_classify"] = _validate_calls_per_classify(
        next(iter(kernel.values()))
    )

    for label, m in cfg["enum_circular"].items():
        out[f"enumeration.enumerate_circular.{label}_s"] = _time(enumeration.enumerate_circular, m)
    for label, m in cfg["enum_axial"].items():
        out[f"enumeration.enumerate_axial.{label}_s"] = _time(enumeration.enumerate_axial, m)

    m = cfg["render_m"]
    galleries = {
        "axial": [enumeration.expand_axial(r) for r in sorted(enumeration.enumerate_axial(m))],
        "circular": [
            enumeration.expand_circular(r) for r in sorted(enumeration.enumerate_circular(m))
        ],
    }
    for fam, tuples in galleries.items():
        for axes in (True, False):
            opts = render.RenderOptions(show_axes=axes)
            tag = "axes" if axes else "noaxes"
            out[f"render.gallery_svg.m20_{fam}_{tag}_s"] = _time(render.gallery_svg, tuples, 3, opts)
    return out

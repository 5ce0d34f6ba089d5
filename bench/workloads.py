"""Workload job lists, their expected outputs, and one checked pass.

A workload is a list of ``Job``s: a ``polysym`` command line plus the
output it must produce.  Expectations come from a path independent of
the one under test (closed-form counts for the oracles, the generator
conditions of the theorem for ``classify``, a brute-force edge-set scan
for non-family walks), and are computed when the job list is built,
outside any timed region.  The seed picks the ``classify`` sample and
its order; ``polysym`` sees only the generated argv.

Load model: closed loop, one client; each command starts after the
previous one returns.  Commands run in-process through
``polysym.cli.main`` with stdout and stderr captured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import time
import traceback
import xml.parsers.expat
from dataclasses import dataclass

from polysym import cli, enumeration, polygon_core

WORKLOADS = ("sweep", "census", "classify", "gallery")

# Per-workload sizes.  "smoke" keeps every command kind at tiny sizes for
# the benchmark's own tests.
SIZES = {
    "full": {
        "sweep": {"sweep": (3, 30), "gcd": (3, 20), "identity": (3, 100)},
        "census": {"n": (9, 10, 11)},
        # (n, axial, circular): the 90th percentile falls in the middle of
        # the n=303 group and the median inside the n=30 group, so neither
        # sits on the edge between two sizes.
        "classify": {
            "family": ((30, 24, 24), (75, 8, 8), (303, 7, 7), (903, 1, 1)),
            "other": ((30, 2), (75, 2)),
            "invalid": ((30, 2), (75, 2)),
        },
        "gallery": {"enumerate": (20, 40), "render": (12, 20)},
    },
    "smoke": {
        "sweep": {"sweep": (3, 6), "gcd": (3, 5), "identity": (3, 10)},
        "census": {"n": (7, 8, 9)},
        "classify": {
            "family": ((12, 2, 2), (30, 1, 1)),
            "other": ((12, 1),),
            "invalid": ((12, 1),),
        },
        "gallery": {"enumerate": (4, 5), "render": (4,)},
    },
}


@dataclass(frozen=True)
class Job:
    """One command and the output it must produce.

    ``out`` names the file a ``render`` job writes, inside the pass's
    scratch directory; the runner appends ``--out <path>``.
    """

    kind: str
    argv: tuple[str, ...]
    expected: dict
    out: str | None = None


def jobs_count() -> int:
    """Worker processes for ``--jobs``: at most 2, and never above the CPUs we may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------------
# job lists


def _verify_job(mode: str, args: tuple[str, ...], results: list[dict]) -> Job:
    return Job("verify", ("verify", "--mode", mode, *args), {"mode": mode, "results": results})


def sweep_jobs(sizes: dict, jobs: int) -> list[Job]:
    (s_lo, s_hi), (g_lo, g_hi), (i_lo, i_hi) = sizes["sweep"], sizes["gcd"], sizes["identity"]
    sweep = [
        {
            "m": m,
            "axial": enumeration.count_axial(m),
            "circular": enumeration.count_circular(m),
            "regular": enumeration.euler_phi(3 * m) // 2,
            "ok": True,
        }
        for m in range(s_lo, s_hi + 1)
    ]
    gcd = [
        {"m": m, "family": fam, "ok": True}
        for m in range(g_lo, g_hi + 1)
        for fam in ("axial", "circular")
    ]
    identity = []
    for m in range(i_lo, i_hi + 1):
        lhs = m * m * enumeration.euler_phi(m)
        identity.append({"m": m, "lhs": lhs, "rhs": lhs, "ok": True})
    return [
        _verify_job("sweep", ("--m", f"{s_lo}..{s_hi}", "--jobs", str(jobs)), sweep),
        _verify_job("gcd", ("--m", f"{g_lo}..{g_hi}"), gcd),
        _verify_job("identity", ("--m", f"{i_lo}..{i_hi}"), identity),
    ]


def census_jobs(sizes: dict, jobs: int) -> list[Job]:
    out = []
    for n in sizes["n"]:
        family = n % 3 == 0 and n >= 9
        out.append(
            _verify_job(
                "census",
                ("--n", str(n), "--jobs", str(jobs)),
                [
                    {
                        "n": n,
                        "census_size": math.factorial(n - 1) // 2,
                        "axial": enumeration.count_axial(n // 3) if family else 0,
                        "circular": enumeration.count_circular(n // 3) if family else 0,
                        "regular": enumeration.euler_phi(n) // 2,
                        "ok": True,
                    }
                ],
            )
        )
    return out


def _family_block(rng: random.Random, m: int, family: str) -> tuple[int, int, int]:
    """A seeded generator block of one class, from the theorem's conditions.

    Generators are congruent to 1 mod 3 in 1..3m-2 and pairwise distinct;
    the winding number u = sum(block) / 3 is coprime to m.
    """
    values = range(1, 3 * m - 1, 3)
    while True:
        if family == "axial":
            a, b = rng.sample(values, 2)
            block = (a, b, a)
        else:
            block = tuple(rng.sample(values, 3))
        if math.gcd(sum(block) // 3, m) == 1:
            return block


def _classify_job(sides: list[int], expected: dict) -> Job:
    argv = ("classify", "--n", str(len(sides)), "--sides", ",".join(map(str, sides)))
    return Job("classify", argv, expected)


def _family_job(rng: random.Random, n: int, family: str) -> Job:
    m = n // 3
    block = _family_block(rng, m, family)
    k = rng.randrange(3)
    shifted = block[k:] + block[:k]
    a, b, _ = block
    return _classify_job(
        list(shifted * m),
        {
            "rc": 0,
            "n": n,
            "m": m,
            "family": family,
            "generators": [a, b] if family == "axial" else list(shifted),
            "sides": list(polygon_core.canonical_period3(n, block)),
            "u": sum(block) // 3,
            "rotation_order": m,
            "axis_count": m if family == "axial" else 0,
        },
    )


def _random_walk(rng: random.Random, n: int) -> list[int]:
    order = [0, *rng.sample(range(1, n), n - 1)]
    return [(order[(i + 1) % n] - order[i]) % n for i in range(n)]


def _geometric_expectation(sides: list[int]) -> dict | None:
    """Expected classify output of a walk, by brute force over its chord set.

    None when the sides repeat with period 1 or 3 (generator extraction
    is not modelled here; such samples are redrawn).
    """
    n = len(sides)
    period = next(p for p in range(1, n + 1) if n % p == 0 and sides == sides[p:] + sides[:p])
    if period in (1, 3):
        return None
    verts = [0]
    for e in sides[:-1]:
        verts.append((verts[-1] + e) % n)
    edges = {frozenset((verts[i], verts[(i + 1) % n])) for i in range(n)}
    rot = sum(1 for k in range(n) if {frozenset((p + k) % n for p in e) for e in edges} == edges)
    axes = sum(1 for a in range(n) if {frozenset((a - p) % n for p in e) for e in edges} == edges)
    m = n // 3 if n % 3 == 0 and n >= 9 else None
    if axes == n:
        family = "regular"
    elif m and axes == m:
        family = "axial"
    elif m and axes == 0 and rot == m:
        family = "circular"
    else:
        family = "other"
    reverse = [n - e for e in reversed(sides)]  # the same walk traversed backwards
    canon = min(min(s[i:] + s[:i] for i in range(n)) for s in (sides, reverse))
    return {
        "rc": 0,
        "n": n,
        "m": m if family in ("axial", "circular") else None,
        "family": family,
        "generators": None,
        "sides": canon,
        "u": sum(sides) // n,
        "rotation_order": rot,
        "axis_count": axes,
    }


def _other_job(rng: random.Random, n: int) -> Job:
    while True:
        sides = _random_walk(rng, n)
        expected = _geometric_expectation(sides)
        if expected is not None:
            return _classify_job(sides, expected)


def _invalid_job(rng: random.Random, n: int) -> Job:
    """A valid walk with one side moved by one: the sum is no longer a
    multiple of n, so the walk cannot close and classify must exit 1."""
    sides = _random_walk(rng, n)
    i = rng.randrange(n)
    sides[i] += 1 if sides[i] < n - 1 else -1
    return _classify_job(sides, {"rc": 1})


def classify_jobs(sizes: dict, rng: random.Random) -> list[Job]:
    out = []
    for n, n_axial, n_circular in sizes["family"]:
        out += [_family_job(rng, n, "axial") for _ in range(n_axial)]
        out += [_family_job(rng, n, "circular") for _ in range(n_circular)]
    for n, count in sizes["other"]:
        out += [_other_job(rng, n) for _ in range(count)]
    for n, count in sizes["invalid"]:
        out += [_invalid_job(rng, n) for _ in range(count)]
    return out


def gallery_jobs(sizes: dict) -> list[Job]:
    count = {"axial": enumeration.count_axial, "circular": enumeration.count_circular}
    out = []
    for m in sizes["enumerate"]:
        for fam in ("axial", "circular"):
            for fmt in ("json", "csv"):
                out.append(
                    Job(
                        "enumerate",
                        ("enumerate", "--m", str(m), "--family", fam, "--format", fmt),
                        {"m": m, "family": fam, "format": fmt, "count": count[fam](m)},
                    )
                )
    for m in sizes["render"]:
        for fam in ("axial", "circular"):
            out.append(
                Job(
                    "render",
                    ("render", "--m", str(m), "--family", fam, "--axes", "--labels"),
                    {"m": m, "family": fam, "count": count[fam](m)},
                    out=f"gallery_m{m}_{fam}.svg",
                )
            )
    return out


def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The job list of one workload, in the order it runs.

    The seed draws the ``classify`` sample and its order.  The other
    workloads run their fixed lists in a fixed order: run in-process, a
    command's latency depends on the one before it (the identity check
    takes about 25% longer right after the two-process sweep), which
    would make per-command latency follow the seed rather than the code.
    """
    sizes = SIZES[size][workload]
    if workload == "sweep":
        return sweep_jobs(sizes, jobs_count())
    if workload == "census":
        return census_jobs(sizes, jobs_count())
    if workload == "gallery":
        return gallery_jobs(sizes)
    if workload == "classify":
        rng = random.Random(seed)
        jobs = classify_jobs(sizes, rng)
        rng.shuffle(jobs)
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the reason


def _check_verify(job: Job, stdout: str, svg: bytes | None) -> str | None:
    lines = stdout.splitlines()
    doc = json.loads(lines[-1])
    if doc.get("mode") != job.expected["mode"] or doc.get("ok") is not True:
        return f"verify summary not ok: {lines[-1][:80]}"
    want = job.expected["results"]
    got = doc.get("results", [])
    if len(got) != len(want) or any(
        {k: r.get(k) for k in w} != w for r, w in zip(got, want)
    ):
        return "verify results differ from the closed forms"
    if len(lines) != len(want) + 1 or not all(line.endswith(" ok") for line in lines[:-1]):
        return "verify text lines malformed"
    return None


def _check_classify(job: Job, stdout: str, svg: bytes | None) -> str | None:
    if job.expected["rc"] != 0:
        return None if stdout == "" else "invalid walk printed output"
    got = json.loads(stdout)
    want = {k: v for k, v in job.expected.items() if k != "rc"}
    return None if got == want else f"classify output differs: {stdout[:80]}"


def _check_enumerate(job: Job, stdout: str, svg: bytes | None) -> str | None:
    want = job.expected
    if want["format"] == "json":
        records = json.loads(stdout)
        if any(r["m"] != want["m"] or r["family"] != want["family"] for r in records):
            return "enumerate record of the wrong m or family"
        if len({tuple(r["sides"]) for r in records}) != len(records):
            return "enumerate records repeat a class"
        got = len(records)
    else:
        lines = stdout.splitlines()
        if lines[0] != "n,m,family,a,b,c,u,rotation_order,axis_count,sides":
            return "enumerate csv header differs"
        got = len(lines) - 1
    return None if got == want["count"] else f"{got} records, closed form {want['count']}"


class _SvgCounter:
    """Counts cell groups and axis lines while expat checks well-formedness."""

    def __init__(self) -> None:
        self.cells = 0
        self.axes = 0

    def start(self, tag: str, attrs: dict) -> None:
        cls = attrs.get("class")
        if tag == "g" and cls == "cell":
            self.cells += 1
        elif tag == "line" and cls == "axis":
            self.axes += 1


def _check_render(job: Job, stdout: str, svg: bytes | None) -> str | None:
    want = job.expected
    if not stdout.endswith(f": {want['count']} classes\n"):
        return f"render summary differs: {stdout[:80]}"
    counter = _SvgCounter()
    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = counter.start
    try:
        parser.Parse(svg, True)
    except xml.parsers.expat.ExpatError as exc:
        return f"svg does not parse: {exc}"
    axes = want["count"] * want["m"] if want["family"] == "axial" else 0
    if (counter.cells, counter.axes) != (want["count"], axes):
        return f"svg has {counter.cells} cells and {counter.axes} axes"
    return None


CHECKS = {
    "verify": _check_verify,
    "classify": _check_classify,
    "enumerate": _check_enumerate,
    "render": _check_render,
}


def check(job: Job, rc: int | str, stdout: str, svg: bytes | None) -> str | None:
    want_rc = job.expected.get("rc", 0)
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"  # rc is a traceback after a crash
    try:
        return CHECKS[job.kind](job, stdout, svg)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    failures: list[tuple[str, str]]
    digest: str
    stdout_bytes: int
    svg_bytes: int
    peak_rss_mb: tuple[float, float]  # this process, its largest child; so far


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(jobs: list[Job], scratch: str) -> PassResult:
    """Run every job once, in order, checking each output.

    ``wall_s`` covers commands and checks; each latency covers one
    ``cli.main`` call.  The digest covers every command's stdout and SVG
    bytes, keyed by argv and independent of job order.
    """
    latencies = []
    failures = []
    pieces = []
    stdout_bytes = svg_bytes = 0
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for job in jobs:
        argv = list(job.argv)
        path = None
        if job.out is not None:
            path = os.path.join(scratch, job.out)
            argv += ["--out", path]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)  # looked up per call, so a tracer's wrapper is seen
            except Exception:  # a crash is one failed command, not a crashed benchmark
                rc = traceback.format_exc(limit=-3)
        latencies.append(time.perf_counter() - start)
        stdout = out.getvalue()
        svg = None
        if path is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                svg = fh.read()
            os.remove(path)
            stdout = stdout.replace(scratch, "<out>")
        reason = check(job, rc, stdout, svg)
        if reason is not None:
            failures.append((" ".join(job.argv)[:120], reason))
        stdout_bytes += len(stdout.encode("utf-8"))
        svg_bytes += len(svg or b"")
        key = hashlib.sha256(" ".join(job.argv).encode("utf-8")).hexdigest()
        body = hashlib.sha256(stdout.encode("utf-8") + b"\0" + (svg or b"")).hexdigest()
        pieces.append(f"{key}:{rc if isinstance(rc, int) else 'crash'}:{body}")
    wall = time.perf_counter() - t0
    digest = hashlib.sha256("\n".join(sorted(pieces)).encode("ascii")).hexdigest()
    return PassResult(
        wall_s=wall,
        cpu_s=_cpu_s() - cpu0,
        latencies_s=latencies,
        failures=failures,
        digest=digest,
        stdout_bytes=stdout_bytes,
        svg_bytes=svg_bytes,
        peak_rss_mb=(  # ru_maxrss is in KiB on Linux
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        ),
    )

"""Command line front end.

Exit codes: 0 success, 1 verification or validation failure, 2 usage
error.  All output is deterministic; identical invocations produce
byte-identical stdout and files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import enumeration, oracle, render
from .classification import family_of, generators, side_period
from .polygon_core import (
    InvalidSideTuple,
    SideTuple,
    WalkError,
    block_symmetry,
    canonical_sides,
    side_symmetry,
    validate_walk,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _fail_check(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return CHECK_FAILED


def _parse_m_range(text: str) -> tuple[int, int]:
    """'3..30' -> (3, 30); a single number means a one-element range."""
    lo, sep, hi = text.partition("..")
    try:
        m_from = int(lo)
        m_to = int(hi) if sep else m_from
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected A..B") from None
    return m_from, m_to


def _parse_sides(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad side list {text!r}, expected comma-separated integers"
        ) from None


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_count(args) -> int:
    m_from, m_to = args.m
    if m_from <= 2 or m_to < m_from:
        return _fail_usage(f"count needs 2 < m_from <= m_to, got {m_from}..{m_to}")
    rows = enumeration.counts_table(m_from, m_to)
    if args.format == "csv":
        print("n,m,p_count,q_count")
        for r in rows:
            print(f"{r.n},{r.m},{r.p_count},{r.q_count}")
    else:
        print(_dump([{"n": r.n, "m": r.m, "p": r.p_count, "q": r.q_count} for r in rows]))
    return 0


def cmd_enumerate(args) -> int:
    """One record per class, in class order, written out in one piece.

    Each record's sides are its canonical 3-block repeated m times, so the
    block's text is formatted once and repeated.  The JSON is the same as
    ``json.dumps`` of the record dicts with compact separators.
    """
    m = args.m
    if m <= 2:
        return _fail_usage(f"family polygons need m > 2, got m={m}")
    n = 3 * m
    family = args.family
    if family == "axial":
        reps = [((r.a, r.b), r.u) for r in enumeration.enumerate_axial(m)]
    else:
        reps = [((r.a, r.b, r.c), r.u) for r in enumeration.enumerate_circular(m)]
    json_out = args.format == "json"
    rows = [] if json_out else ["n,m,family,a,b,c,u,rotation_order,axis_count,sides"]
    for gens, u in reps:
        block = gens if len(gens) == 3 else (*gens, gens[0])
        sym = block_symmetry(n, block)
        x, y, z = sym.block
        rot, axes = sym.profile.rotation_order, sym.profile.axis_count
        if json_out:
            sides = ",".join([f"{x},{y},{z}"] * m)
            rows.append(
                f'{{"n":{n},"m":{m},"family":"{family}",'
                f'"generators":[{",".join(map(str, gens))}],"sides":[{sides}],'
                f'"u":{u},"rotation_order":{rot},"axis_count":{axes}}}'
            )
        else:
            sides = " ".join([f"{x} {y} {z}"] * m)
            c = gens[2] if len(gens) == 3 else ""
            rows.append(f"{n},{m},{family},{gens[0]},{gens[1]},{c},{u},{rot},{axes},{sides}")
    text = "[" + ",".join(rows) + "]" if json_out else "\n".join(rows)
    sys.stdout.write(text + "\n")
    return 0


def cmd_classify(args) -> int:
    try:
        t = SideTuple(args.n, args.sides)
    except InvalidSideTuple as exc:
        return _fail_usage(str(exc))
    try:
        validate_walk(t)
    except WalkError as exc:
        return _fail_check(f"not a valid polygon: {exc}")
    sym = side_symmetry(t.n, t.sides)
    profile = sym.profile
    family = family_of(t.n, profile)
    gens = generators(t.sides, sym.period)
    print(
        _dump(
            {
                "n": t.n,
                "m": family.m,
                "family": family.tag.value,
                "generators": list(gens) if gens is not None else None,
                "sides": list(canonical_sides(t.n, t.sides)),
                "u": sum(t.sides) // t.n,
                "rotation_order": profile.rotation_order,
                "axis_count": profile.axis_count,
            }
        )
    )
    return 0


def _verify_sweep(args, pool) -> tuple[list[str], list[dict]]:
    m_from, m_to = args.m
    lines = []
    results = []
    for m in range(m_from, m_to + 1):
        report = oracle.sweep_period3(m, jobs=args.jobs, pool=pool)
        expected = {
            "axial": enumeration.count_axial(m),
            "circular": enumeration.count_circular(m),
            "regular": enumeration.euler_phi(3 * m) // 2,
        }
        found = {
            "axial": len(report.axial_blocks),
            "circular": len(report.circular_blocks),
            "regular": len(report.regular_blocks),
        }
        for fam, want in expected.items():
            if found[fam] != want:
                raise oracle.VerificationError(
                    f"sweep m={m}: {fam} count {found[fam]} != formula {want}"
                )
        # both sides name each class by its canonical 3-block
        if report.axial_blocks != oracle.theorem_axial_blocks(m):
            raise oracle.VerificationError(f"sweep m={m}: axial class sets differ")
        if report.circular_blocks != oracle.theorem_circular_blocks(m):
            raise oracle.VerificationError(f"sweep m={m}: circular class sets differ")
        lines.append(
            f"sweep m={m}: axial={found['axial']} circular={found['circular']} "
            f"regular={found['regular']} other={report.other_count} ok"
        )
        results.append({"m": m, **found, "other": report.other_count, "ok": True})
    return lines, results


def _verify_census(args, pool) -> tuple[list[str], list[dict]]:
    n = args.n
    report = oracle.census_full(n, jobs=args.jobs, pool=pool)
    found = {
        "axial": len(report.axial_classes),
        "circular": len(report.circular_classes),
        "regular": len(report.regular_classes),
    }
    if n % 3 == 0 and n >= 9:
        m = n // 3
        sweep = oracle.sweep_period3(m, jobs=args.jobs, pool=pool)
        if report.axial_classes != sweep.axial_classes:
            raise oracle.VerificationError(f"census n={n}: axial differs from sweep")
        if report.circular_classes != sweep.circular_classes:
            raise oracle.VerificationError(f"census n={n}: circular differs from sweep")
        if report.regular_classes != sweep.regular_classes:
            raise oracle.VerificationError(f"census n={n}: regular differs from sweep")
        for t in report.axial_classes | report.circular_classes:
            if side_period(t) != 3:
                raise oracle.VerificationError(
                    f"census n={n}: class {t.sides} has side period != 3"
                )
    elif found["axial"] or found["circular"]:
        raise oracle.VerificationError(
            f"census n={n}: family classes reported although n is not 3m with m>2"
        )
    lines = [
        f"census n={n}: cycles={report.census_size} axial={found['axial']} "
        f"circular={found['circular']} regular={found['regular']} "
        f"other={report.other_count} ok"
    ]
    results = [
        {
            "n": n,
            "census_size": report.census_size,
            **found,
            "other": report.other_count,
            "ok": True,
        }
    ]
    return lines, results


def _verify_identity(args, pool) -> tuple[list[str], list[dict]]:
    m_from, m_to = args.m
    lines = []
    results = []
    for m in range(m_from, m_to + 1):
        check = oracle.verify_identity(m)
        lines.append(f"identity m={m}: {check.lhs} == {check.rhs} ok")
        results.append({"m": m, "lhs": check.lhs, "rhs": check.rhs, "ok": True})
    return lines, results


def _verify_gcd(args, pool) -> tuple[list[str], list[dict]]:
    m_from, m_to = args.m
    families = ("axial", "circular") if args.family == "both" else (args.family,)
    lines = []
    results = []
    for m in range(m_from, m_to + 1):
        for fam in families:
            oracle.verify_theorem_gcd(m, fam)
            lines.append(f"gcd m={m} family={fam} ok")
            results.append({"m": m, "family": fam, "ok": True})
    return lines, results


def _verify_pool(args):
    """The one worker pool a verify command shares across its searches
    (None when it runs serially): as many workers as the widest search
    can use, within ``--jobs`` and the usable CPUs."""
    if args.mode == "census":
        shards = len(oracle.census_tasks(args.n))
    elif args.mode == "sweep":
        shards = len(oracle.sweep_tasks(args.m[1], args.jobs))
    else:
        shards = 1
    return oracle.worker_pool(args.jobs, shards)


def cmd_verify(args) -> int:
    if args.jobs < 1:
        return _fail_usage(f"--jobs must be at least 1, got {args.jobs}")
    if args.mode == "census":
        if args.n is None:
            return _fail_usage("verify --mode census needs --n")
        if args.n < 3 or args.n > oracle.CENSUS_MAX_N:
            return _fail_usage(
                f"census supports 3 <= n <= {oracle.CENSUS_MAX_N}, got n={args.n}"
            )
    else:
        if args.m is None:
            return _fail_usage(f"verify --mode {args.mode} needs --m")
        m_from, m_to = args.m
        if m_from <= 2 or m_to < m_from:
            return _fail_usage(f"need 2 < m_from <= m_to, got {m_from}..{m_to}")
    runner = {
        "sweep": _verify_sweep,
        "census": _verify_census,
        "identity": _verify_identity,
        "gcd": _verify_gcd,
    }[args.mode]
    try:
        with _verify_pool(args) as pool:
            lines, results = runner(args, pool)
    except oracle.VerificationError as exc:
        return _fail_check(str(exc))
    for line in lines:
        print(line)
    print(_dump({"mode": args.mode, "ok": True, "results": results}))
    return 0


def cmd_render(args) -> int:
    m = args.m
    if m <= 2:
        return _fail_usage(f"family polygons need m > 2, got m={m}")
    try:
        opts = render.RenderOptions(
            size_px=args.size,
            show_labels=args.labels,
            show_axes=args.axes,
            stroke_width=args.stroke,
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.columns < 1:
        return _fail_usage(f"columns must be at least 1, got {args.columns}")
    if args.family == "axial":
        tuples = [enumeration.expand_axial(r) for r in enumeration.enumerate_axial(m)]
    else:
        tuples = [enumeration.expand_circular(r) for r in enumeration.enumerate_circular(m)]
    doc = render.gallery_svg(tuples, columns=args.columns, opts=opts)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        return _fail_check(f"cannot write {args.out}: {exc}")
    print(f"wrote {args.out}: {len(tuples)} classes")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysym",
        description="Count, enumerate, verify and render symmetric polygons "
        "on 3m circle vertices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="class counts for a range of m")
    p.add_argument("--m", type=_parse_m_range, required=True, metavar="A..B")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="all classes of one family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--family", choices=("axial", "circular"), required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify one side tuple")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sides", type=_parse_sides, required=True, metavar="E1,E2,...")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a brute-force check")
    p.add_argument("--mode", choices=("sweep", "census", "identity", "gcd"), required=True)
    p.add_argument("--m", type=_parse_m_range, metavar="A..B")
    p.add_argument("--n", type=int)
    p.add_argument("--family", choices=("axial", "circular", "both"), default="both")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="write an SVG gallery of one family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--family", choices=("axial", "circular"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--columns", type=int, default=3)
    p.add_argument("--size", type=int, default=320)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--axes", action="store_true")
    p.add_argument("--stroke", type=float, default=1.5)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except enumeration.MTooSmall as exc:
        return _fail_usage(str(exc))
    except (oracle.NTooSmall, oracle.NTooLarge) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())

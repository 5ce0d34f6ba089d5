"""Command line front end.

Exit codes: 0 success, 1 verification or validation failure (or an
unwritable ``render`` target, or a stdout closed before the output
ended), 2 usage error.  All output is deterministic; identical
invocations produce byte-identical stdout and files.

Building the parser imports no other polysym module: each subcommand
imports the modules it runs, so a process pays only for its command.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

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


# m values per counts_table call: the command holds one window of rows at a time
COUNT_WINDOW = 4096

# Work budgets, each about 10 s on 2 vCPUs (Python 3.11).  ``count`` costs
# about the same per row whatever m is: 3,000,000 rows take about 7 s from
# m = 3 and 8.4 s from m = 10^9.  An identity scan builds tables of 3m
# entries for each m, so its time is the sum of m over the range (10^7 is
# m = 3..4471, about 6 s, or 100 values of m near 10^5, about 10 s) and
# its memory grows with m_to (about 340 MB at m = 10^6).
COUNT_MAX_ROWS = 3_000_000
IDENTITY_MAX_M_SUM = 10_000_000
IDENTITY_MAX_M = 1_000_000


def cmd_count(args) -> int:
    """The counts of every m of the range, one ``counts_table`` window of
    ``COUNT_WINDOW`` values at a time, written a batch of rows at a time.
    The JSON is the same as ``json.dumps`` of the row dicts with compact
    separators."""
    from . import enumeration

    m_from, m_to = args.m
    if m_from <= 2 or m_to < m_from:
        return _fail_usage(f"count needs 2 < m_from <= m_to, got {m_from}..{m_to}")
    if m_to - m_from + 1 > COUNT_MAX_ROWS:
        return _fail_usage(
            f"count prints at most {COUNT_MAX_ROWS} rows per command, "
            f"got {m_to - m_from + 1} for {m_from}..{m_to}"
        )
    windows = (
        enumeration.counts_table(lo, min(lo + COUNT_WINDOW - 1, m_to))
        for lo in range(m_from, m_to + 1, COUNT_WINDOW)
    )
    first = next(windows)  # a library error shows before any output
    rows = itertools.chain.from_iterable(itertools.chain([first], windows))
    if args.format == "csv":
        lines = (f"{r.n},{r.m},{r.p_count},{r.q_count}\n" for r in rows)
        _write_joined("n,m,p_count,q_count\n", lines, "", "")
    else:
        records = (f'{{"n":{r.n},"m":{r.m},"p":{r.p_count},"q":{r.q_count}}}' for r in rows)
        _write_joined("[", records, ",", "]\n")
    return 0


# records per stdout write: the command holds one batch of records at a time
ENUMERATE_BATCH = 256


def _write_joined(head: str, rows, sep: str, tail: str) -> None:
    """Write ``head``, the strings of the iterator ``rows`` joined by
    ``sep``, and ``tail`` to stdout, one write per ``ENUMERATE_BATCH``
    rows."""
    write = sys.stdout.write
    write(head)
    lead = ""
    while chunk := list(itertools.islice(rows, ENUMERATE_BATCH)):
        write(lead + sep.join(chunk))
        lead = sep
    write(tail)


def cmd_enumerate(args) -> int:
    """One record per class, in class order, written as the class stream
    yields them, a batch of records at a time.

    Each record's sides are its canonical 3-block repeated m times, so the
    block's text is formatted once and repeated.  Every class of a family
    has the same equality pattern among its block's entries (a != b in
    (a, b, a), three distinct entries in (a, b, c)), so one
    ``block_symmetry`` call gives the profile of every record.  The JSON
    is the same as ``json.dumps`` of the record dicts with compact
    separators.
    """
    from . import enumeration, polygon_core

    m = args.m
    if m <= 2:
        return _fail_usage(f"family polygons need m > 2, got m={m}")
    n = 3 * m
    family = args.family
    classes = enumeration.class_blocks(m, family)
    first = next(classes)  # every family has a class at every m > 2
    profile = polygon_core.block_symmetry(n, first[2]).profile
    classes = itertools.chain([first], classes)
    rot, axes = profile.rotation_order, profile.axis_count
    if args.format == "json":
        head = f'{{"n":{n},"m":{m},"family":"{family}","generators":['
        tail = f',"rotation_order":{rot},"axis_count":{axes}}}'
        rows = (
            f'{head}{",".join(map(str, gens))}],"sides":['
            f'{",".join([f"{x},{y},{z}"] * m)}],"u":{u}{tail}'
            for gens, u, (x, y, z) in classes
        )
        _write_joined("[", rows, ",", "]\n")
    else:
        head = f"{n},{m},{family},"
        tail = f",{rot},{axes},"
        pad = "," if family == "axial" else ""  # axial records leave column c empty
        rows = (
            f'{head}{",".join(map(str, gens))}{pad},{u}{tail}'
            f'{" ".join([f"{x} {y} {z}"] * m)}\n'
            for gens, u, (x, y, z) in classes
        )
        _write_joined("n,m,family,a,b,c,u,rotation_order,axis_count,sides\n", rows, "", "")
    return 0


def cmd_classify(args) -> int:
    from . import classification, polygon_core

    try:
        t = polygon_core.SideTuple(args.n, args.sides)
    except polygon_core.InvalidSideTuple as exc:
        return _fail_usage(str(exc))
    try:
        polygon_core.validate_walk(t)
    except polygon_core.WalkError as exc:
        return _fail_check(f"not a valid polygon: {exc}")
    sym = polygon_core.side_symmetry(t.n, t.sides)
    profile = sym.profile
    family = classification.family_of(t.n, profile)
    gens = classification.generators(t.sides, sym.period)
    print(
        _dump(
            {
                "n": t.n,
                "m": family.m,
                "family": family.tag.value,
                "generators": list(gens) if gens is not None else None,
                "sides": list(sym.block * (t.n // sym.period)),
                "u": sum(t.sides) // t.n,
                "rotation_order": profile.rotation_order,
                "axis_count": profile.axis_count,
            }
        )
    )
    return 0


# one stdout line per verify record
_VERIFY_LINES = {
    "sweep": "sweep m={m}: axial={axial} circular={circular} regular={regular} "
    "other={other} ok",
    "census": "census n={n}: cycles={census_size} axial={axial} circular={circular} "
    "regular={regular} other={other} ok",
    "identity": "identity m={m}: {lhs} == {rhs} ok",
    "gcd": "gcd m={m} family={family} ok",
}


def _verify_records(args) -> list[dict]:
    """The oracle's record for each m (and family) of the range, or for n.

    Every mode runs serially in this process; ``--jobs`` is checked by
    ``cmd_verify`` and changes nothing."""
    from . import oracle

    if args.mode == "census":
        return [oracle.verify_census(oracle.census_full(args.n))]
    ms = range(args.m[0], args.m[1] + 1)
    if args.mode == "sweep":
        return [oracle.verify_sweep(oracle.sweep_period3(m)) for m in ms]
    if args.mode == "identity":
        return [oracle.verify_identity(m) for m in ms]
    family = args.family or "both"
    families = ("axial", "circular") if family == "both" else (family,)
    return [record for m in ms for record in oracle.verify_gcd_families(m, families)]


def cmd_verify(args) -> int:
    from . import oracle

    if args.jobs < 1:
        return _fail_usage(f"--jobs must be at least 1, got {args.jobs}")
    unread = "m" if args.mode == "census" else "n"
    if getattr(args, unread) is not None:
        return _fail_usage(f"--{unread} does not apply to --mode {args.mode}")
    if args.family is not None and args.mode != "gcd":
        return _fail_usage(f"--family does not apply to --mode {args.mode}")
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
        if args.mode == "identity":
            m_sum = (m_from + m_to) * (m_to - m_from + 1) // 2
            if m_to > IDENTITY_MAX_M or m_sum > IDENTITY_MAX_M_SUM:
                return _fail_usage(
                    f"identity takes m <= {IDENTITY_MAX_M} and a sum of m of at most "
                    f"{IDENTITY_MAX_M_SUM} per command, got {m_from}..{m_to} (sum {m_sum})"
                )
    try:
        results = _verify_records(args)
    except oracle.VerificationError as exc:
        return _fail_check(str(exc))
    line = _VERIFY_LINES[args.mode]
    for record in results:
        print(line.format_map(record))
    print(_dump({"mode": args.mode, "ok": True, "results": results}))
    return 0


def cmd_render(args) -> int:
    """Stream the gallery of one family into ``--out``: each class is drawn
    as the class stream yields it, and the file appears only once it is
    whole."""
    from . import enumeration, polygon_core, render

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
    n = 3 * m
    count = (
        enumeration.count_axial(m) if args.family == "axial" else enumeration.count_circular(m)
    )
    cells = (
        polygon_core.SideTuple(n, (gens if len(gens) == 3 else (*gens, gens[0])) * m)
        for gens, _, _ in enumeration.class_blocks(m, args.family)
    )
    parts = render.gallery_parts(cells, count, columns=args.columns, opts=opts)
    try:
        _write_atomically(args.out, parts)
    except (OSError, ValueError) as exc:
        return _fail_check(f"cannot write {args.out}: {exc}")
    print(f"wrote {args.out}: {count} classes")
    return 0


def _write_atomically(path: str, parts) -> None:
    """Write the strings of ``parts`` to ``path`` through a temporary file
    in the same directory, moved onto ``path`` once the last part is
    written.  A failure midway removes the temporary file, so it leaves
    no partial file and any earlier ``path`` as it was."""
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:
            pass
        raise


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
    p.add_argument("--family", choices=("axial", "circular", "both"))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``main``
    call in the process: ``parse_args`` returns a fresh namespace each
    time and keeps no state in the parser."""
    return build_parser()


def _usage_errors() -> tuple[type[ValueError], ...]:
    """The library errors that ``main`` reports as usage errors.  An
    ``except`` clause evaluates its expression only when an exception
    reaches it, so a command that raises nothing imports none of them."""
    from . import enumeration, oracle

    return enumeration.MTooSmall, oracle.NTooSmall, oracle.NTooLarge


def _stdout_reader_gone() -> bool:
    """Whether the process's own stdout is a pipe whose reading end is
    closed: a ``BrokenPipeError`` from anywhere else, or with ``sys.stdout``
    replaced (as in-process callers do), is not a closed stdout."""
    if sys.stdout is not sys.__stdout__:
        return False
    import select

    poller = select.poll()
    poller.register(sys.stdout.fileno(), select.POLLOUT)
    return any(event & select.POLLERR for _, event in poller.poll(0))


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except _usage_errors() as exc:
        return _fail_usage(str(exc))
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise
        # The reader of stdout has gone (``polysym ... | head``).  As the
        # ``signal`` module's docs advise, point fd 1 at devnull, so that
        # the interpreter's flush of stdout at exit writes nowhere instead
        # of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance checks for the package's headline guarantees.

Each test prints exactly one PASS/FAIL line (visible with `pytest -s`)
and fails hard on any mismatch. Expected integers come from the frozen
tables in expected_counts.py, never from the code under test.
"""

import random
import time
import xml.etree.ElementTree as ET

import polysym as ps
from polysym import SideTuple
from expected_counts import EXPECTED_AXIAL, EXPECTED_CIRCULAR


def report(label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_counts_match_frozen_tables():
    t0 = time.perf_counter()
    rows = ps.counts_table(3, 30)
    mismatches = [
        (r.m, r.p_count, r.q_count)
        for r in rows
        if r.p_count != EXPECTED_AXIAL[r.m] or r.q_count != EXPECTED_CIRCULAR[r.m]
    ]
    elapsed = time.perf_counter() - t0
    report(
        "class counts for m=3..30 match the 56 frozen table cells",
        len(rows) == 28 and not mismatches and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_02_prime_closed_forms():
    t0 = time.perf_counter()
    primes = (5, 7, 11, 13, 17, 19, 23, 29)
    ok = all(
        ps.count_axial_prime(p) == (p - 1) ** 2 == ps.count_axial(p)
        and ps.count_circular_prime(p)
        == (p - 1) ** 2 * (p - 2) // 3
        == ps.count_circular(p)
        for p in primes
    )
    elapsed = time.perf_counter() - t0
    report(
        "prime-m closed forms (p-1)^2 and (p-1)^2(p-2)/3 agree with the "
        "general formulas for p in {5..29}",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def checked(verify, report):
    """``verify(report)``'s record, or None when the check fails."""
    try:
        return verify(report)
    except ps.VerificationError as exc:
        print(f"FAIL: {exc}")
        return None


def test_03_sweep_matches_enumeration_for_all_m_up_to_30():
    t0 = time.perf_counter()
    bad = []
    for m in range(3, 31):
        rec = checked(ps.verify_sweep, ps.sweep_period3(m))
        if (
            rec is None
            or rec["axial"] != EXPECTED_AXIAL[m]
            or rec["circular"] != EXPECTED_CIRCULAR[m]
        ):
            bad.append(m)
    elapsed = time.perf_counter() - t0
    report(
        "exhaustive period-3 sweep class sets equal the enumerated canonical "
        "sets for every m in 3..30",
        not bad and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_04_full_census_ground_truth(census9, census12):
    rec9 = checked(ps.verify_census, census9)
    rec12 = checked(ps.verify_census, census12)
    ok = (
        rec9 is not None
        and rec12 is not None
        and (rec9["axial"], rec9["circular"]) == (3, 2)
        and (rec12["axial"], rec12["circular"]) == (6, 4)
        and census9.elapsed < 1.0
        and census12.elapsed < 600.0
    )
    report(
        "full Hamiltonian-cycle census finds exactly 3+2 classes at n=9 and "
        "6+4 at n=12, identical to the sweep's sets",
        ok,
        f"n=9 {census9.elapsed:.2f}s over {census9.census_size} cycles, "
        f"n=12 {census12.elapsed:.1f}s over {census12.census_size}",
    )


def test_05_family_classes_always_repeat_a_three_block(census9, census12):
    offenders = [
        t
        for r in (census9, census12)
        for t in r.axial_classes | r.circular_classes
        if ps.side_period(t) != 3
    ]
    report(
        "every axial or circular class in the n=9 and n=12 censuses has side "
        "period exactly 3",
        not offenders,
        f"{len(census9.axial_classes | census9.circular_classes) + len(census12.axial_classes | census12.circular_classes)} classes checked",
    )


def test_06_gcd_biconditional():
    t0 = time.perf_counter()
    ok = all(
        ps.verify_theorem_gcd(m, family)
        for m in range(3, 21)
        for family in ("axial", "circular")
    )
    elapsed = time.perf_counter() - t0
    report(
        "walk validity is equivalent to gcd(2a+b,3m)=3 / gcd(a+b+c,3m)=3 for "
        "all m in 3..20",
        ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_07_count_identity():
    t0 = time.perf_counter()
    ok = True
    for m in range(3, 101):
        chk = ps.verify_identity(m)
        ok = ok and chk["lhs"] == chk["rhs"] == m * m * ps.euler_phi(m)
    elapsed = time.perf_counter() - t0
    report(
        "m^2*phi(m) = 3|Q|+3|P|+phi(3m)/2 holds with enumerated cardinalities "
        "for all m in 3..100",
        ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_08_canonical_form_properties():
    rng = random.Random(20260826)
    ok = True
    for _ in range(1000):
        n = rng.choice((9, 12, 15))
        rest = list(range(1, n))
        rng.shuffle(rest)
        verts = (0, *rest)
        t = SideTuple(
            n, tuple((verts[(i + 1) % n] - verts[i]) % n for i in range(n))
        )
        c = ps.canonical_form(t)
        k = rng.randrange(n)
        ok = (
            ok
            and ps.canonical_form(ps.cyclic_shift(t, k)) == c
            and ps.canonical_form(ps.reversed_complement(t)) == c
            and ps.canonical_form(c) == c
        )
    pair_ok = ps.canonical_form(SideTuple(12, (11, 5, 11) * 4)) == ps.canonical_form(
        SideTuple(12, (1, 7, 1) * 4)
    )
    report(
        "canonical form is shift- and reversal-invariant and idempotent on "
        "1000 seeded random polygons; the congruent (11,5)/(1,7) pair at n=12 "
        "canonicalizes identically",
        ok and pair_ok,
    )


def test_09_renderer_determinism():
    gallery = [ps.expand_axial(r) for r in sorted(ps.enumerate_axial(3))]
    doc1 = ps.gallery_svg(gallery)
    doc2 = ps.gallery_svg(gallery)
    cells_ok = True
    for cell in ET.fromstring(doc1).iter():
        if cell.get("class") != "cell":
            continue
        chords = [el for el in cell.iter() if el.get("class") == "chord"]
        cells_ok = cells_ok and len(chords) == 9
    report(
        "rendering the three n=9 axial classes twice is byte-identical and "
        "each cell draws exactly n chords",
        doc1 == doc2 and cells_ok,
        f"{len(doc1)} bytes",
    )

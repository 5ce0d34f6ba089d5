import argparse
import dataclasses
import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import polysym as ps
import polysym.cli as cli
import polysym.enumeration as enumeration
import polysym.oracle as oracle
from polysym.cli import main


def run(argv, capfd):
    rc = main(argv)
    out, err = capfd.readouterr()
    return rc, out, err


class TestCount:
    def test_csv_golden(self, capfd):
        rc, out, err = run(["count", "--m", "3..5", "--format", "csv"], capfd)
        assert rc == 0
        assert out == "n,m,p_count,q_count\n9,3,3,2\n12,4,6,4\n15,5,16,16\n"
        assert err == ""

    def test_json_golden(self, capfd):
        rc, out, _ = run(["count", "--m", "3", "--format", "json"], capfd)
        assert rc == 0
        assert out == '[{"n":9,"m":3,"p":3,"q":2}]\n'

    def test_csv_is_default_format(self, capfd):
        rc, out, _ = run(["count", "--m", "3..30"], capfd)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,p_count,q_count"
        assert len(lines) == 29

    def test_rejects_m_of_two(self, capfd):
        rc, _, err = run(["count", "--m", "2..5"], capfd)
        assert rc == 2
        assert err == "error: count needs 2 < m_from <= m_to, got 2..5\n"

    def test_rejects_reversed_range(self, capfd):
        rc, _, err = run(["count", "--m", "5..3"], capfd)
        assert rc == 2
        assert "error:" in err

    def test_rejects_malformed_range(self, capfd):
        rc, _, err = run(["count", "--m", "abc"], capfd)
        assert rc == 2
        assert "bad range" in err


class TestEnumerate:
    def test_axial_m3_records(self, capfd):
        rc, out, _ = run(["enumerate", "--m", "3", "--family", "axial"], capfd)
        assert rc == 0
        recs = json.loads(out)
        assert [r["generators"] for r in recs] == [[1, 4], [4, 7], [7, 1]]
        assert all(r["n"] == 9 and r["m"] == 3 and r["family"] == "axial" for r in recs)
        assert all(r["rotation_order"] == 3 and r["axis_count"] == 3 for r in recs)
        assert recs[0]["sides"] == [1, 1, 4, 1, 1, 4, 1, 1, 4]
        assert recs[0]["u"] == 2

    def test_circular_m3_records(self, capfd):
        rc, out, _ = run(["enumerate", "--m", "3", "--family", "circular"], capfd)
        recs = json.loads(out)
        assert [r["generators"] for r in recs] == [[1, 4, 7], [1, 7, 4]]
        assert all(r["axis_count"] == 0 and r["rotation_order"] == 3 for r in recs)

    def test_record_count_matches_formula(self, capfd):
        for m, fam in [(5, "axial"), (5, "circular"), (8, "circular")]:
            rc, out, _ = run(["enumerate", "--m", str(m), "--family", fam], capfd)
            count = ps.count_axial(m) if fam == "axial" else ps.count_circular(m)
            assert len(json.loads(out)) == count

    def test_csv_header(self, capfd):
        rc, out, _ = run(
            ["enumerate", "--m", "3", "--family", "circular", "--format", "csv"],
            capfd,
        )
        lines = out.splitlines()
        assert lines[0] == "n,m,family,a,b,c,u,rotation_order,axis_count,sides"
        assert lines[1].startswith("9,3,circular,1,4,7,4,3,0,")

    def test_rejects_m_too_small(self, capfd):
        rc, _, err = run(["enumerate", "--m", "2", "--family", "axial"], capfd)
        assert rc == 2
        assert "m > 2" in err

    def test_reingestion_through_classify(self, capfd):
        for fam in ("axial", "circular"):
            rc, out, _ = run(["enumerate", "--m", "4", "--family", fam], capfd)
            for rec in json.loads(out):
                sides = ",".join(str(e) for e in rec["sides"])
                rc2, out2, _ = run(
                    ["classify", "--n", str(rec["n"]), "--sides", sides], capfd
                )
                rec2 = json.loads(out2)
                assert rc2 == 0
                assert rec2["family"] == fam
                assert rec2["m"] == rec["m"]
                assert rec2["sides"] == rec["sides"]
                assert rec2["rotation_order"] == rec["rotation_order"]
                assert rec2["axis_count"] == rec["axis_count"]


class TestClassify:
    def test_axial_golden(self, capfd):
        rc, out, _ = run(
            ["classify", "--n", "9", "--sides", "1,4,1,1,4,1,1,4,1"], capfd
        )
        assert rc == 0
        assert out == (
            '{"n":9,"m":3,"family":"axial","generators":[1,4],'
            '"sides":[1,1,4,1,1,4,1,1,4],"u":2,"rotation_order":3,"axis_count":3}\n'
        )

    def test_hexagon_example(self, capfd):
        rc, out, _ = run(["classify", "--n", "6", "--sides", "1,2,1,4,3,1"], capfd)
        rec = json.loads(out)
        assert rc == 0
        assert rec["family"] == "other"
        assert rec["m"] is None
        assert rec["generators"] is None
        assert rec["u"] == 2

    def test_regular_example(self, capfd):
        rc, out, _ = run(["classify", "--n", "9", "--sides", ",".join(["2"] * 9)], capfd)
        rec = json.loads(out)
        assert rec["family"] == "regular"
        assert rec["generators"] == [2]
        assert rec["rotation_order"] == rec["axis_count"] == 9

    def test_premature_closure_exits_one(self, capfd):
        rc, out, err = run(["classify", "--n", "6", "--sides", "2,2,2,2,2,2"], capfd)
        assert rc == 1
        assert out == ""
        assert err == "FAIL: not a valid polygon: premature closure at i=3\n"

    def test_malformed_sides_exit_two(self, capfd):
        rc, _, err = run(["classify", "--n", "6", "--sides", "1,2,3"], capfd)
        assert rc == 2
        assert err.startswith("error:")
        rc, _, err = run(["classify", "--n", "6", "--sides", "0,2,1,4,3,2"], capfd)
        assert rc == 2

    @pytest.mark.parametrize(
        "sides", [(1, 4, 1) * 3, (1, 4, 7) * 3, (2,) * 9, (1, 2, 1, 4, 3, 1), (2,) * 6]
    )
    def test_validates_the_walk_once(self, sides, monkeypatch, capfd):
        calls = []
        original = ps.polygon_core.validate_walk

        def counted(t):
            calls.append(t)
            return original(t)

        # patch every name a caller may look the function up by
        for module in (ps.cli, ps.classification, ps.polygon_core, ps.render, ps.oracle):
            if hasattr(module, "validate_walk"):
                monkeypatch.setattr(module, "validate_walk", counted)
        argv = ["classify", "--n", str(len(sides)), "--sides", ",".join(map(str, sides))]
        run(argv, capfd)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "sides", [(1, 4, 1) * 3, (1, 4, 7) * 301, (2,) * 9, (1, 2, 1, 4, 3, 1)]
    )
    def test_builds_one_failure_function(self, sides, failure_lengths, capfd):
        argv = ["classify", "--n", str(len(sides)), "--sides", ",".join(map(str, sides))]
        assert run(argv, capfd)[0] == 0
        assert failure_lengths == [len(sides)]


class TestVerify:
    def test_census_nonagon(self, capfd):
        rc, out, _ = run(["verify", "--mode", "census", "--n", "9"], capfd)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "census n=9: cycles=20160 axial=3 circular=2 regular=3 other=0 ok"
        report = json.loads(lines[-1])
        assert report == {
            "mode": "census",
            "ok": True,
            "results": [
                {
                    "n": 9,
                    "census_size": 20160,
                    "axial": 3,
                    "circular": 2,
                    "regular": 3,
                    "other": 0,
                    "ok": True,
                }
            ],
        }

    def test_census_rejects_large_n(self, capfd):
        rc, _, err = run(["verify", "--mode", "census", "--n", "15"], capfd)
        assert rc == 2
        assert err == "error: census supports 3 <= n <= 12, got n=15\n"

    def test_sweep(self, capfd):
        rc, out, _ = run(["verify", "--mode", "sweep", "--m", "3..4"], capfd)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "sweep m=3: axial=3 circular=2 regular=3 other=0 ok"
        assert lines[1] == "sweep m=4: axial=6 circular=4 regular=2 other=0 ok"
        assert json.loads(lines[-1])["ok"] is True

    def test_sweep_needs_m(self, capfd):
        rc, _, err = run(["verify", "--mode", "sweep"], capfd)
        assert rc == 2
        assert "needs --m" in err

    def test_identity(self, capfd):
        rc, out, _ = run(["verify", "--mode", "identity", "--m", "3..10"], capfd)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "identity m=3: 18 == 18 ok"
        report = json.loads(lines[-1])
        assert report["mode"] == "identity" and report["ok"] is True
        assert len(report["results"]) == 8

    def test_gcd(self, capfd):
        rc, out, _ = run(["verify", "--mode", "gcd", "--m", "3..5"], capfd)
        assert rc == 0
        report = json.loads(out.splitlines()[-1])
        assert len(report["results"]) == 6  # both families per m

    def test_gcd_single_family(self, capfd):
        rc, out, _ = run(
            ["verify", "--mode", "gcd", "--m", "3..3", "--family", "axial"], capfd
        )
        report = json.loads(out.splitlines()[-1])
        assert report["results"] == [{"m": 3, "family": "axial", "ok": True}]

    def test_jobs_flag_does_not_change_output(self, capfd):
        rc1, out1, _ = run(["verify", "--mode", "sweep", "--m", "3..12"], capfd)
        for jobs in ("2", "3"):
            rc2, out2, _ = run(
                ["verify", "--mode", "sweep", "--m", "3..12", "--jobs", jobs], capfd
            )
            assert (rc1, out1) == (rc2, out2)

    @pytest.mark.parametrize("mode", ["sweep", "gcd"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_two(self, capfd, mode, jobs):
        rc, out, err = run(["verify", "--mode", mode, "--m", "3..5", "--jobs", jobs], capfd)
        assert rc == 2
        assert out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize("jobs", ["2", "1000000"], ids=["default", "forced"])
    @pytest.mark.parametrize(
        "argv",
        [*(["--mode", "census", "--n", str(n)] for n in range(3, 12)),
         ["--mode", "sweep", "--m", "3..12"]],
        ids=[*(f"census{n}" for n in range(3, 12)), "sweep3-12"],
    )
    def test_jobs_do_not_change_stdout(self, argv, jobs, capfd):
        # every search runs serially in this process: the two jobs the
        # benchmark passes, or far more than any machine has CPUs, print
        # the --jobs 1 bytes
        one = run(["verify", *argv, "--jobs", "1"], capfd)
        many = run(["verify", *argv, "--jobs", jobs], capfd)
        assert one == many and one[0] == 0

    def test_census_rejects_m(self, capfd):
        rc, out, err = run(["verify", "--mode", "census", "--n", "6", "--m", "3..4"], capfd)
        assert (rc, out, err) == (2, "", "error: --m does not apply to --mode census\n")

    @pytest.mark.parametrize(
        "argv",
        [["--mode", "sweep", "--m", "3..4"], ["--mode", "census", "--n", "6"],
         ["--mode", "identity", "--m", "3..4"]],
        ids=["sweep", "census", "identity"],
    )
    @pytest.mark.parametrize("family", ["axial", "circular", "both"])
    def test_family_only_applies_to_gcd(self, capfd, argv, family):
        rc, out, err = run(["verify", *argv, "--family", family], capfd)
        assert (rc, out, err) == (2, "", f"error: --family does not apply to --mode {argv[1]}\n")

    def test_gcd_family_both_is_the_default(self, capfd):
        default = run(["verify", "--mode", "gcd", "--m", "3..4"], capfd)
        assert default == run(["verify", "--mode", "gcd", "--m", "3..4", "--family", "both"], capfd)
        assert default[0] == 0

    @pytest.mark.parametrize("mode", ["sweep", "gcd", "identity"])
    def test_m_modes_reject_n(self, capfd, mode):
        rc, out, err = run(["verify", "--mode", mode, "--m", "3..4", "--n", "6"], capfd)
        assert (rc, out, err) == (2, "", f"error: --n does not apply to --mode {mode}\n")

    @pytest.mark.parametrize(
        "argv",
        [["--mode", "sweep", "--m", "3..8"], ["--mode", "census", "--n", "9"]],
        ids=["sweep", "census"],
    )
    def test_verify_builds_no_side_tuple(self, argv, capfd, monkeypatch):
        built = []
        real = ps.SideTuple.__post_init__

        def counting(self):
            built.append(self.n)
            real(self)

        monkeypatch.setattr(ps.SideTuple, "__post_init__", counting)
        rc, out, _ = run(["verify", *argv], capfd)
        assert rc == 0
        assert json.loads(out.splitlines()[-1])["ok"] is True
        assert built == []


def patch_report(monkeypatch, name, change):
    """Make ``oracle.<name>`` return ``change(report)`` for its own report."""
    real = getattr(oracle, name)

    def patched(*args, **kwargs):
        return change(real(*args, **kwargs))

    monkeypatch.setattr(oracle, name, patched)


def drop_least(blocks):
    return blocks - {min(blocks)}


class TestVerifyFailures:
    """Each check of ``verify``, fed a contradiction by patching ``oracle``,
    exits 1 with one FAIL line on stderr and nothing on stdout."""

    def assert_fails(self, argv, message, capfd):
        rc, out, err = run(["verify", *argv], capfd)
        assert (rc, out, err) == (1, "", f"FAIL: {message}\n")

    def test_sweep_count(self, capfd, monkeypatch):
        patch_report(
            monkeypatch,
            "sweep_period3",
            lambda r: dataclasses.replace(r, axial_blocks=drop_least(r.axial_blocks)),
        )
        self.assert_fails(
            ["--mode", "sweep", "--m", "3..3"], "sweep m=3: axial count 2 != formula 3", capfd
        )

    def test_sweep_class_set(self, capfd, monkeypatch):
        # same count, but (0, 0, 0) is no theorem block
        patch_report(
            monkeypatch,
            "sweep_period3",
            lambda r: dataclasses.replace(
                r, axial_blocks=drop_least(r.axial_blocks) | {(0, 0, 0)}
            ),
        )
        self.assert_fails(
            ["--mode", "sweep", "--m", "3..3"], "sweep m=3: axial class sets differ", capfd
        )

    def test_sweep_failure_mid_range_stops(self, capfd, monkeypatch):
        # m = 4 fails and m = 5 is never swept
        swept = []

        def failing_at_4(r):
            swept.append(r.n // 3)
            if r.n != 12:
                return r
            return dataclasses.replace(r, axial_blocks=drop_least(r.axial_blocks))

        patch_report(monkeypatch, "sweep_period3", failing_at_4)
        self.assert_fails(
            ["--mode", "sweep", "--m", "3..5", "--jobs", "2"],
            "sweep m=4: axial count 5 != formula 6",
            capfd,
        )
        assert swept == [3, 4]

    def test_census_against_sweep(self, capfd, monkeypatch):
        patch_report(
            monkeypatch,
            "census_full",
            lambda r: dataclasses.replace(r, circular_blocks=drop_least(r.circular_blocks)),
        )
        self.assert_fails(
            ["--mode", "census", "--n", "9"], "census n=9: circular differs from sweep", capfd
        )

    def test_census_side_period(self, capfd, monkeypatch):
        # both oracles report the regular 9-gon (2,) * 9 as axial
        patch_report(
            monkeypatch,
            "sweep_period3",
            lambda r: dataclasses.replace(r, axial_blocks=r.axial_blocks | {(2, 2, 2)}),
        )
        patch_report(
            monkeypatch,
            "census_full",
            lambda r: dataclasses.replace(r, axial_blocks=r.axial_blocks | {(2,) * 9}),
        )
        self.assert_fails(
            ["--mode", "census", "--n", "9"],
            "census n=9: class (2, 2, 2, 2, 2, 2, 2, 2, 2) has side period != 3",
            capfd,
        )

    def test_census_family_outside_3m(self, capfd, monkeypatch):
        patch_report(
            monkeypatch,
            "census_full",
            lambda r: dataclasses.replace(
                r, axial_blocks=r.axial_blocks | {(1, 2, 3, 4, 5, 6, 7, 1)}
            ),
        )
        self.assert_fails(
            ["--mode", "census", "--n", "8"],
            "census n=8: family classes reported although n is not 3m with m>2",
            capfd,
        )

    def test_census_cycle_total(self, capfd, monkeypatch):
        patch_report(
            monkeypatch,
            "census_full",
            lambda r: dataclasses.replace(r, census_size=r.census_size - 1),
        )
        self.assert_fails(
            ["--mode", "census", "--n", "8"],
            "census n=8: cycle count 2519 != formula 2520",
            capfd,
        )

    def test_census_regular_total(self, capfd, monkeypatch):
        patch_report(
            monkeypatch,
            "census_full",
            lambda r: dataclasses.replace(r, regular_blocks=drop_least(r.regular_blocks)),
        )
        self.assert_fails(
            ["--mode", "census", "--n", "8"],
            "census n=8: regular count 1 != formula 2",
            capfd,
        )

    def test_identity(self, capfd, monkeypatch):
        real = oracle._scan_axial_count
        monkeypatch.setattr(oracle, "_scan_axial_count", lambda m: real(m) + 1)
        self.assert_fails(
            ["--mode", "identity", "--m", "3..3"], "identity fails at m=3: 18 != 21", capfd
        )

    def test_identity_scan_invariant(self, capfd, monkeypatch):
        # Any whole-number table counts each unordered triple six times, so
        # only a fractional flag can break the divisibility by 3: with every
        # flag 1/3 the one unordered triple at m=3 counts 6 * 1/3 = 2.
        monkeypatch.setattr(oracle, "_coprime_flags", lambda m: [Fraction(1, 3)] * m)
        self.assert_fails(
            ["--mode", "identity", "--m", "3..3"],
            "identity scan at m=3: ordered circular triple count 2 is not a multiple of 3",
            capfd,
        )

    @staticmethod
    def flip_walk(monkeypatch, a, b, c):
        """Make the walk kernel misjudge the walk (a, b, c) * m."""
        real = oracle._third_sides

        def flipped(sets, n, first):
            thirds = real(sets, n, first)
            if first == a:
                thirds[(a + b) % n] ^= 1 << c
            return thirds

        monkeypatch.setattr(oracle, "_third_sides", flipped)

    def test_gcd(self, capfd, monkeypatch):
        self.flip_walk(monkeypatch, 1, 4, 1)
        self.assert_fails(
            ["--mode", "gcd", "--m", "3..3", "--family", "axial"],
            "axial biconditional fails at m=3, (a,b)=(1,4): walk=False, gcd(2a+b,3m)=3",
            capfd,
        )

    def test_gcd_circular(self, capfd, monkeypatch):
        self.flip_walk(monkeypatch, 1, 4, 7)
        self.assert_fails(
            ["--mode", "gcd", "--m", "3..3", "--family", "circular"],
            "circular biconditional fails at m=3, (a,b,c)=(1,4,7): walk=False, "
            "gcd(a+b+c,3m)=3",
            capfd,
        )


class TestRender:
    def test_writes_gallery(self, capfd, tmp_path):
        out_path = tmp_path / "p3.svg"
        rc, out, _ = run(
            ["render", "--m", "3", "--family", "axial", "--out", str(out_path)], capfd
        )
        assert rc == 0
        assert out == f"wrote {out_path}: 3 classes\n"
        doc = out_path.read_text()
        import xml.etree.ElementTree as ET

        root = ET.fromstring(doc)
        cells = [el for el in root.iter() if el.get("class") == "cell"]
        assert len(cells) == 3
        caps = [el.text for el in root.iter() if el.get("class") == "caption"]
        assert caps == ["a=1;b=4", "a=4;b=7", "a=7;b=1"]

    def test_axes_flag(self, capfd, tmp_path):
        out_path = tmp_path / "p3ax.svg"
        rc, _, _ = run(
            [
                "render", "--m", "3", "--family", "axial",
                "--axes", "--out", str(out_path),
            ],
            capfd,
        )
        assert rc == 0
        doc = out_path.read_text()
        assert doc.count('class="axis"') == 9  # 3 cells x 3 mirror lines

    def test_output_is_deterministic(self, capfd, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for p in (a, b):
            run(["render", "--m", "4", "--family", "circular", "--out", str(p)], capfd)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_one(self, capfd):
        rc, _, err = run(
            ["render", "--m", "3", "--family", "axial",
             "--out", "/nonexistent/dir/x.svg"],
            capfd,
        )
        assert rc == 1
        assert err.startswith("FAIL: cannot write")

    def test_bad_options_exit_two(self, capfd, tmp_path):
        out_path = str(tmp_path / "x.svg")
        rc, _, err = run(
            ["render", "--m", "3", "--family", "axial", "--out", out_path,
             "--columns", "0"],
            capfd,
        )
        assert rc == 2
        rc, _, err = run(
            ["render", "--m", "3", "--family", "axial", "--out", out_path,
             "--size", "10"],
            capfd,
        )
        assert rc == 2

    @pytest.mark.parametrize("stroke", ["nan", "inf"])
    def test_nonfinite_stroke_exits_two_and_writes_nothing(self, capfd, tmp_path, stroke):
        out_path = tmp_path / "x.svg"
        rc, out, err = run(
            ["render", "--m", "3", "--family", "axial", "--out", str(out_path),
             "--stroke", stroke],
            capfd,
        )
        assert rc == 2
        assert out == ""
        assert err == f"error: stroke_width must be finite, got {float(stroke)}\n"
        assert not out_path.exists()

    # How the class stream is cut: the classes kept, then what it raises.
    CUTS = {
        "error": (3, RuntimeError("stream failed")),
        "disk full": (3, OSError(28, "No space left on device")),
        "short": (ps.count_circular(5) - 1, None),
        "long": (ps.count_circular(5) + 1, None),
    }

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("cut", CUTS)
    def test_failure_midway_leaves_the_target_as_it_was(
        self, capfd, tmp_path, monkeypatch, cut, existing
    ):
        keep, error = self.CUTS[cut]
        real = enumeration.class_blocks

        def cut_stream(m, family):
            yield from itertools.islice(itertools.cycle(real(m, family)), keep)
            if error is not None:
                raise error

        monkeypatch.setattr(enumeration, "class_blocks", cut_stream)
        out_path = tmp_path / "g.svg"
        if existing:
            out_path.write_bytes(b"<svg/>\n")
        argv = ["render", "--m", "5", "--family", "circular", "--out", str(out_path)]
        if isinstance(error, RuntimeError):
            with pytest.raises(RuntimeError, match="stream failed"):
                main(argv)
        else:
            rc, out, err = run(argv, capfd)
            assert (rc, out) == (1, "")
            assert err.startswith(f"FAIL: cannot write {out_path}: ")
        assert [p.name for p in tmp_path.iterdir()] == (["g.svg"] if existing else [])
        if existing:
            assert out_path.read_bytes() == b"<svg/>\n"

    def test_replaces_an_existing_target_whole(self, capfd, tmp_path):
        out_path = tmp_path / "g.svg"
        out_path.write_bytes(b"x" * 10**6)
        argv = ["render", "--m", "4", "--family", "axial", "--out", str(out_path)]
        assert run(argv, capfd)[0] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["g.svg"]
        fresh = tmp_path / "fresh.svg"
        assert run(argv[:-1] + [str(fresh)], capfd)[0] == 0
        assert out_path.read_bytes() == fresh.read_bytes()


class TestSharedParser:
    """``main`` builds its parser on the first call and reuses it."""

    SEQUENCE = [
        ["verify", "--mode", "frobnicate"],  # usage error
        ["--help"],
        ["verify", "--mode", "census", "--n", "9"],
        ["classify", "--n", "9", "--sides", "1,4,1,1,4,1,1,4,1"],
        ["verify", "--mode", "gcd", "--m", "3", "--family", "axial"],
        ["verify", "--mode", "census"],  # needs --n
    ]

    def test_reuse_matches_a_fresh_parser(self, capfd, monkeypatch):
        fresh = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(run(argv, capfd))
        assert [rc for rc, _, _ in fresh] == [2, 0, 0, 0, 0, 2]
        cli._parser.cache_clear()
        built = []  # the index of the call during which each parser was made
        shared = []
        real = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(len(shared))
            real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in self.SEQUENCE:
            shared.append(run(argv, capfd))
        assert shared == fresh
        assert built and set(built) == {0}


class TestTopLevel:
    def test_no_command_exits_two(self, capfd):
        assert run([], capfd)[0] == 2

    def test_unknown_command_exits_two(self, capfd):
        assert run(["frobnicate"], capfd)[0] == 2

    CENSUS9 = ["verify", "--mode", "census", "--n", "9"]

    @pytest.mark.parametrize(
        "target, argv, error",
        [
            ("polysym.enumeration.counts_table", ["count", "--m", "3"], ps.MTooSmall(2)),
            ("polysym.oracle.census_full", CENSUS9, ps.NTooSmall(2)),
            ("polysym.oracle.census_full", CENSUS9, ps.NTooLarge(13)),
        ],
    )
    def test_library_usage_errors_exit_two(self, capfd, monkeypatch, target, argv, error):
        """``main`` reports these library errors as usage errors, whichever
        command they reach it from."""

        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(target, raising)
        assert run(argv, capfd) == (2, "", f"error: {error}\n")

    def test_stdout_is_reproducible(self, capfd):
        rc1, out1, _ = run(["count", "--m", "3..12", "--format", "json"], capfd)
        rc2, out2, _ = run(["count", "--m", "3..12", "--format", "json"], capfd)
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv", [["count", "--m", "3..5000"], ["enumerate", "--m", "60", "--family", "circular"]]
    )
    def test_closed_stdout_exits_one_without_a_traceback(self, argv):
        # both outputs outgrow the pipe, so the command is still writing
        # when the reader closes it after the first bytes (the JSON is one
        # line)
        proc = subprocess.Popen(
            [sys.executable, "-m", "polysym.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read1(64)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        with proc.stderr:
            assert proc.stderr.read() == b""

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polysym.cli", "count", "--m", "3..4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n,m,p_count,q_count"

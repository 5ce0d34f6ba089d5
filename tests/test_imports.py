"""What a cold start imports, and the package's public names.

``polysym`` resolves its public names on first use (PEP 562) and each
CLI subcommand imports the modules it runs, so a fresh interpreter loads
only what its command needs.  These tests read ``sys.modules`` in fresh
interpreters, and pin the public names to the submodules that define
them.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polysym as ps

# The public names, by the submodule that defines each.
PUBLIC = {
    "classification": ["Family", "FamilyTag", "classify", "side_period"],
    "enumeration": [
        "AxialRep", "CircularRep", "CountsRow", "MTooSmall", "NotPrime", "count_axial",
        "count_axial_prime", "count_circular", "count_circular_prime", "counts_table",
        "enumerate_axial", "enumerate_circular", "euler_phi", "expand_axial",
        "expand_circular",
    ],
    "oracle": [
        "NTooLarge", "NTooSmall", "OracleReport", "VerificationError", "census_full",
        "sweep_period3", "verify_census", "verify_identity", "verify_sweep",
        "verify_theorem_gcd",
    ],
    "polygon_core": [
        "EdgeSet", "InvalidSideTuple", "NotClosed", "PrematureClosure", "SideSymmetry",
        "SideTuple", "SymmetryProfile", "VertexCycle", "WalkError", "canonical_form",
        "canonical_period3", "cyclic_shift", "edge_set", "prefix_sums", "reflect_edges",
        "reversed_complement", "revolutions", "rotate_edges", "side_symmetry",
        "symmetry_profile", "validate_walk",
    ],
    "render": ["RenderOptions", "caption_for", "gallery_svg", "polygon_svg"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)

SRC = str(Path(ps.__file__).resolve().parent.parent)


def fresh_run(code: str) -> tuple[str, set[str]]:
    """What a fresh interpreter prints while it runs ``code``, and its
    ``sys.modules`` after."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    *printed, modules = proc.stdout.splitlines(keepends=True)
    return "".join(printed), set(json.loads(modules))


def modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    return fresh_run(code)[1]


CLASSIFY = "['classify', '--n', '9', '--sides', '1,4,1,1,4,1,1,4,1']"
CENSUS = "['verify', '--mode', 'census', '--n', '9']"

# (code, modules it must load, modules it must not load)
COLD_STARTS = {
    "package": (
        "import polysym",
        {"polysym"},
        {f"polysym.{m}" for m in (*PUBLIC, "cli")} | {"multiprocessing"},
    ),
    "parser": (
        "import polysym.cli as cli; cli.build_parser()",
        {"polysym.cli"},
        {f"polysym.{m}" for m in PUBLIC} | {"multiprocessing"},
    ),
    "classify": (
        f"import polysym.cli as cli; assert cli.main({CLASSIFY}) == 0",
        {"polysym.polygon_core", "polysym.classification"},
        {"polysym.oracle", "polysym.render", "polysym.enumeration", "multiprocessing"},
    ),
    "serial census": (
        f"import polysym.cli as cli; assert cli.main({CENSUS}) == 0",
        {"polysym.oracle"},
        {"polysym.render", "multiprocessing"},
    ),
}


@pytest.mark.parametrize("case", COLD_STARTS)
def test_cold_start_imports_only_what_its_command_runs(case):
    code, needed, unused = COLD_STARTS[case]
    loaded = modules_after(code)
    assert needed <= loaded
    assert not unused & loaded


def printed_whatever_jobs_says(argv: list[str], jobs: str) -> str:
    """What ``verify`` prints for ``argv`` in a fresh interpreter, the same
    with ``--jobs 1`` and ``--jobs`` ``jobs``; neither run loads
    ``multiprocessing``."""
    printed = []
    for j in ("1", jobs):
        full = ["verify", *argv, "--jobs", j]
        out, loaded = fresh_run(f"import polysym.cli as cli\nassert cli.main({full!r}) == 0")
        assert "multiprocessing" not in loaded
        printed.append(out)
    assert printed[0] == printed[1]
    return printed[0]


def test_sweep_runs_in_process_whatever_jobs_says():
    # m = 3..32 is a range whose sweep once opened a pool
    out = printed_whatever_jobs_says(["--mode", "sweep", "--m", "3..32"], "2")
    assert out.startswith("sweep m=3: ")


def test_census_runs_in_process_whatever_jobs_says():
    # n = 10 once opened a pool of two; far more jobs than CPUs start none
    out = printed_whatever_jobs_says(["--mode", "census", "--n", "10"], "1000000")
    assert out.startswith("census n=10: ")


def test_submodules_are_attributes_of_a_fresh_package():
    code = "import polysym as ps\n" + "".join(
        f"assert ps.{m}.__name__ == 'polysym.{m}'\n" for m in PUBLIC
    )
    assert {f"polysym.{m}" for m in PUBLIC} <= modules_after(code)


def test_public_names_are_unchanged():
    assert len(NAMES) == 54
    assert sorted(ps.__all__) == NAMES


def test_each_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"polysym.{module}")
        for name in names:
            assert getattr(ps, name) is getattr(sub, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from polysym import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(ps, name), name


def test_dir_lists_every_name():
    assert {*NAMES, *PUBLIC} <= set(dir(ps))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ps.no_such_name
    with pytest.raises(ImportError):
        exec("from polysym import no_such_name", {})

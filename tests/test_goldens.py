"""Byte-identity goldens for ``classify`` stdout and ``render`` SVG output.

The digests below were recorded from the edge-set implementation of the
symmetry profile (a scan of all n rotations and n mirrors of the chord
set).  Any faster kernel must reproduce every byte of both outputs.

The classify inputs are generated from a fixed seed, group by group:
theorem family members read from a random block anchor, regular stars,
walks with a rotation of every possible order (one per proper divisor of
n), walks with a mirror axis, walks with a direction-reversing rotation,
asymmetric random walks, invalid walks and malformed input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random

import pytest

from polysym.cli import main
from walks import family_walk, mirrored_walk, periodic_walk, random_walk, reversing_walk

CLASSIFY_NS = (9, 12, 30, 303)
RENDER_MS = range(3, 13)
SEED = 1911_09155


def _invalid(rng: random.Random, n: int) -> list[list[int]]:
    not_closed = random_walk(rng, n)
    i = rng.randrange(n)
    not_closed[i] += 1 if not_closed[i] < n - 1 else -1
    premature = [1, n - 1] + [rng.randrange(1, n) for _ in range(n - 2)]
    return [not_closed, premature]


def classify_cases() -> dict[str, list[tuple[int, list[int]]]]:
    """(n, sides) argument lists, grouped by "n/kind", in a fixed order."""
    rng = random.Random(SEED)
    groups: dict[str, list[tuple[int, list[int]]]] = {}
    for n in CLASSIFY_NS:
        kinds = {
            "family": [family_walk(rng, n, f) for f in ("axial", "circular") * 3],
            "regular": [[k] * n for k in range(1, n) if math.gcd(k, n) == 1][:3],
            "periodic": [periodic_walk(rng, n, d) for d in range(2, n) if n % d == 0],
            "mirror": [mirrored_walk(rng, n, i % 2 == 1) for i in range(4)],
            "reversing": [reversing_walk(rng, n) for _ in range(3)] if n % 2 == 0 else [],
            "other": [random_walk(rng, n) for _ in range(2)],
            "invalid": _invalid(rng, n) + [[1] * (n - 1), [0] + [1] * (n - 1)],
        }
        for kind, walks in kinds.items():
            if walks:
                groups[f"{n}/{kind}"] = [(n, w) for w in walks]
    return groups


def _run(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return f"{rc}\n{out.getvalue()}\0{err.getvalue()}".encode("utf-8")


def classify_digest(cases: list[tuple[int, list[int]]]) -> str:
    h = hashlib.sha256()
    for n, sides in cases:
        h.update(_run(["classify", "--n", str(n), "--sides", ",".join(map(str, sides))]))
    return h.hexdigest()


def render_digest(m: int, family: str, path) -> str:
    argv = ["render", "--m", str(m), "--family", family, "--axes", "--labels"]
    if _run(argv + ["--out", str(path)]).split(b"\n", 1)[0] != b"0":
        raise AssertionError(f"render {argv} failed")
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


CLASSIFY_GOLDEN = {
    "9/family": "38237e2ccc8d8a91dff745ded284c23035ef8bcf92282c277ee5c200447048e7",
    "9/regular": "604c30ec1fa1649d095e63e41379e383474e1450d2bb6d4f3740459da6463b79",
    "9/periodic": "faf0d3b7eb49484c711b4945d4e6c002b1d33177932971b8dc15a3514a8b6b0d",
    "9/mirror": "3bfaadab087077ba6e8343cff742de6127f4e0d8c76b30776b878265dcca0826",
    "9/other": "c00bea51fd14965cab1ced179d9d8c72fe7a16912ca6ad5c33ee808f96b7a295",
    "9/invalid": "789608c319f04ada519a8979792080bd3543431abdb4719acf2ce63ff569f848",
    "12/family": "90da97f4eb3a2ccb53e9d7d5ddb8515f909d4658560f4f322f67b0b357d8ba5c",
    "12/regular": "4449a9d99205296e9fec0aee2f2578d23d9f3c7937abdd5d2a07926c220c6045",
    "12/periodic": "4c74833e7ea8022fd6dd023be017b77ef8d8406495a82533b3f6446f49542b89",
    "12/mirror": "c8575bee11b68a6b79562eafef0327634516443be418a035ee9a90b780e5c182",
    "12/reversing": "987c3183c7ea26607ec7ee3a197880a011f8434111947d430e9949fdc24ab39a",
    "12/other": "d027e5148fd666bb00385729768d1512cec0ca0f2bacb2c0403fb3b5f4601458",
    "12/invalid": "cb60ebbafe3498148051f7ef7d1423b869be8298d28495a92e2912fc7b04f3f9",
    "30/family": "33a265009a7c329af4ffd0c29e6179afb003ce0b2954ee2530c0c899ee408f08",
    "30/regular": "3b7f4784ec6ae06aadf88026b5c05bf22f5a993e4bfae5bf55e5c183879fda85",
    "30/periodic": "20b7b988aeeae1c4353b4f588288de510689a9dc19980b4bdccdc87bf08c78fd",
    "30/mirror": "74cd9af81e3ca9221cee4b3d5c884c6138e7e0ab3c400bf533c2b742dda3252a",
    "30/reversing": "21047ef796060190808f808fee7b7a64e14423709a90e73f4fa6f9ae4b52012d",
    "30/other": "f35c0136efa297fe9abe2a2543bf96739db7e3d851931ac57fcb636fb5ed5730",
    "30/invalid": "51fe93d76094114dd5a607e99d5ddd114e3402ed747665019d0492ec0f1c38a8",
    "303/family": "1dbe6507ece1e68518b33797135ef84ba028ec11c9f1e94c25ddf30a6499394b",
    "303/regular": "a9d7112ab556b59ad88decda11fb593796a6caf7908a8ca44553cfaa30b28fe3",
    "303/periodic": "ca252393d8df011a9d4e1c314937baf7add7d9ed1258de9f5f5042885ab2167f",
    "303/mirror": "086fbffc694c8d17e266bd532ade5b4745ef34981e13d37e68cd53cff348c1a0",
    "303/other": "c82cd303632242869c4659daaff7e1631058b6939c1c1477a9916fca03e238c9",
    "303/invalid": "40dff00aa01861182f5bf89af3941e03385ee2beeb3d24e9acce511654f292de",
}

RENDER_GOLDEN = {
    "3/axial": "e4d1fb349ed17713ce40d81d4f5c7fe95b33e3d36ec3dea281b56923db774d2f",
    "3/circular": "d5d7a88a7035ce9607c8afe0aa91a9abacd98df9bd4413ffca4166068deff797",
    "4/axial": "add87a8b5a3c5616852c568c5f89309d340e265a446d1e34a8d1de98c369506a",
    "4/circular": "e9182170877a15a2dcda9b2090b4fe3abd5479d8648fbf886134711325fa3a08",
    "5/axial": "3dadeb86138b3b2d5c48ca438cbc6ed3755956af18cfe8a08c572292adc5a038",
    "5/circular": "ae39eada8d2a2eb75970424a22a00b529196caf894cb7c19e3d48d563f7c3e70",
    "6/axial": "fbcf76cc4f16596cf6586512bdc1d4852f226547ca80983b5ba0e092ea237539",
    "6/circular": "ed7e28c6cb928990e96f511f13ca914f5f196e3301a30f7dabe5d3823bd19b07",
    "7/axial": "93940728e80e9545b01407a63d0802eaf79bc27686f88804695934c77a7e984e",
    "7/circular": "54d914f9dc0a68f938c8ee27b67ffea60a64559b51eb30d509d0a2d9d491f9d3",
    "8/axial": "32e29aedf63bca8b6727910e0478f4f19c50a3e92aa4c32db376409bd503b881",
    "8/circular": "b5b87f064751006b6b5e4dcdd09b589f9a746defaeabfc8cd10784c4c3361e05",
    "9/axial": "b9acd4b51c6a0d19ef5c8ecc7ee6dbe15d8dd4818a7a6e1c2f8faf1c27faac71",
    "9/circular": "eb9bb02835c429b7cbcef6c274fb46c9cebddd42b9e0b3c65dbb9d385040c332",
    "10/axial": "aa128379fecfb397d8cae6e2c335a83b5c9c8f84aad4ff30952192468b28a08b",
    "10/circular": "2f8beb6043269bf8e41d3087c944b339d9d9318e338498686165449dd09f6f6f",
    "11/axial": "ef9ab30d494446d3bd0fd35d3b6811729ca1592b630ad66ce4874cdfd725f489",
    "11/circular": "c87ad82248c7412d7c78b684c3224435fc01430859ea5263252e298f586a56ce",
    "12/axial": "f84f53b52ba2523b7017a92dec8b917a134fe470773cf67683f2e7cb783fc23e",
    "12/circular": "34a9a1bd2892a9e52a8c2044bdfd97c71de71c820792b7081286c5c0f60af840",
}


@pytest.mark.parametrize("group", sorted(CLASSIFY_GOLDEN))
def test_classify_stdout_is_byte_identical(group):
    assert classify_digest(classify_cases()[group]) == CLASSIFY_GOLDEN[group]


def test_classify_groups_are_all_pinned():
    assert set(classify_cases()) == set(CLASSIFY_GOLDEN)


@pytest.mark.parametrize("m", RENDER_MS)
@pytest.mark.parametrize("family", ["axial", "circular"])
def test_render_svg_is_byte_identical(m, family, tmp_path):
    digest = render_digest(m, family, tmp_path / "g.svg")
    assert digest == RENDER_GOLDEN[f"{m}/{family}"]

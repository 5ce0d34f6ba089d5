"""Byte-identity goldens for ``classify``, ``enumerate`` and ``verify``
stdout and ``render`` SVG output.

The classify and ``--axes --labels`` render digests were recorded from
the edge-set implementation of the symmetry profile (a scan of all n
rotations and n mirrors of the chord set).  The enumerate digests and the
other render digests were recorded from the output path that built every
record from a full side tuple and formatted every number of every
gallery cell afresh.  Any faster kernel or output path must reproduce
every byte.  The verify digests were recorded from the sweep that
walked every closing triple and expanded each class to a full side tuple.

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
import json
import math
import random

import pytest

from polysym import RenderOptions, SideTuple, gallery_svg, polygon_svg
from polysym.cli import main
from polysym.enumeration import enumerate_axial, enumerate_circular
from walks import (
    family_walk,
    mirrored_walk,
    periodic_walk,
    random_walk,
    reference_class_record,
    reversing_walk,
)

CLASSIFY_NS = (9, 12, 30, 303)
RENDER_MS = range(3, 13)
ENUMERATE_MS = (*range(3, 13), 20, 40)
SEED = 1911_09155

# Render flags that change the per-gallery frame (size, stroke, axes,
# labels) or the layout (columns), each run at m = 3..8.
RENDER_VARIANTS = {
    "plain": [],
    "axes": ["--axes"],
    "labels": ["--labels"],
    "small": ["--size", "64", "--stroke", "0.5", "--columns", "1", "--axes", "--labels"],
    "wide": ["--columns", "7", "--axes", "--labels"],
}
RENDER_VARIANT_MS = range(3, 9)


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


def _render_bytes(argv: list[str], path) -> bytes:
    if _run(argv + ["--out", str(path)]).split(b"\n", 1)[0] != b"0":
        raise AssertionError(f"render {argv} failed")
    with open(path, "rb") as fh:
        return fh.read()


def render_digest(m: int, family: str, path) -> str:
    argv = ["render", "--m", str(m), "--family", family, "--axes", "--labels"]
    return hashlib.sha256(_render_bytes(argv, path)).hexdigest()


def render_variant_digest(variant: str, family: str, path) -> str:
    """One digest over the SVGs of m = 3..8, in order, for one flag set."""
    h = hashlib.sha256()
    for m in RENDER_VARIANT_MS:
        argv = ["render", "--m", str(m), "--family", family, *RENDER_VARIANTS[variant]]
        h.update(_render_bytes(argv, path))
    return h.hexdigest()


def enumerate_argv(m: int, family: str, fmt: str) -> list[str]:
    return ["enumerate", "--m", str(m), "--family", family, "--format", fmt]


# Each verify command runs at most two workers.
VERIFY_ARGV = {
    "sweep/jobs1": ["--mode", "sweep", "--m", "3..30", "--jobs", "1"],
    "sweep/jobs2": ["--mode", "sweep", "--m", "3..30", "--jobs", "2"],
    "sweep/100": ["--mode", "sweep", "--m", "100"],
    "gcd": ["--mode", "gcd", "--m", "3..20"],
    "identity": ["--mode", "identity", "--m", "3..100"],
    "census/9": ["--mode", "census", "--n", "9"],
    "census/10": ["--mode", "census", "--n", "10"],
}


def mixed_gallery() -> list[SideTuple]:
    """Side tuples of several n in one list: family members of m = 3, 4, 5,
    regular stars, and seeded mirrored, reversing and asymmetric walks."""
    rng = random.Random(SEED)
    ts = [SideTuple(9, (1, 4, 1) * 3), SideTuple(12, (1, 4, 10) * 4), SideTuple(9, (2,) * 9)]
    ts += [SideTuple(15, family_walk(rng, 15, f)) for f in ("axial", "circular")]
    ts += [SideTuple(n, mirrored_walk(rng, n, n % 2 == 0)) for n in (10, 11, 12)]
    ts += [SideTuple(10, reversing_walk(rng, 10)), SideTuple(7, random_walk(rng, 7))]
    ts += [SideTuple(12, (5,) * 12), SideTuple(9, (1, 4, 1) * 3)]
    return ts


def library_docs() -> dict[str, str]:
    ts = mixed_gallery()
    both = RenderOptions(size_px=100, show_axes=True, show_labels=True, stroke_width=0.75)
    return {
        "gallery/default": gallery_svg(ts),
        "gallery/axes+labels": gallery_svg(ts, columns=4, opts=both),
        "polygon/axes+labels": polygon_svg(ts[5], both),
    }


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

RENDER_VARIANT_GOLDEN = {
    "axes/axial": "81764a5b7cceb2c52cbac877ca9280426e8ed953ca68058503381350be532c48",
    "axes/circular": "b70ea2b94afea709c94bdf58f391541ea2d4d3e1544e9421dce1f03d111ef29e",
    "labels/axial": "f710045d0a82bcec7505f4b253dce906a3eeec4e0c38008ccdbeba54f053de1a",
    "labels/circular": "316d3ff74fbb9612ac049fd637a09ccb0754b390fc32e63a0c3999378b7389df",
    "plain/axial": "c605b24a90607e98c8ff40e844b3b5084fe623375e12c958ce3a54517e57500a",
    "plain/circular": "b70ea2b94afea709c94bdf58f391541ea2d4d3e1544e9421dce1f03d111ef29e",
    "small/axial": "1713beeb49103e11c8c1a239c611f1314c058c927e774679f3c9c5897a30ecbe",
    "small/circular": "d69c0b1cbd33834d152fd6bda0b784e82cda822dac99c2c35274ce91974f5805",
    "wide/axial": "155386cd05a7a0f6a8185e89fdef6e9ead5d73a0a6f120c40c8c5f02dd1453a7",
    "wide/circular": "e154fd874dcdca94d4815d0044d5818b4dbbf8d2c751174d6c58b019270436fd",
}

LIBRARY_GOLDEN = {
    "gallery/default": "6e3f883f745d71e91eeda142aedd4ecbfd1ea41cb79a309106c44ea782312897",
    "gallery/axes+labels": "b22a7c5a806a6fc2ff231b680302eb8f6cd3021c92ce86d30f81fc505b43cf03",
    "polygon/axes+labels": "ed01ae91e0d9b118aa4cbb966c94290c7d8ab9bee079a724866a4c0907936b6c",
}

ENUMERATE_GOLDEN = {
    "3/axial/json": "9c3494cf3d7387459ca3d7ff2ccaaf73f69412b2dcc7b255d0da5a1d5fc50983",
    "3/axial/csv": "52ff7c6838e403786054d6db172b8734741e3ae007ef9320797c5b0c0e0fb503",
    "3/circular/json": "4c2312154240c77c9de1b041ef30873edead8347175cf56c3e400ac515d141bf",
    "3/circular/csv": "aa00be19d87101d1651a0debfcee1e77a15a1cdb8dd7a79bb0378ff541bc6399",
    "4/axial/json": "ab0bb2b360cc465fda236c5f6d350086b8c8953328de3148bc0e15c310da183f",
    "4/axial/csv": "bc34a6263638416007de8d760d579afbf8d0d6a7856e412a54053bd24f8166fe",
    "4/circular/json": "6e20619e12e55e043c0afbe5392ad8847377c8e50ded2956d38e116bf639255c",
    "4/circular/csv": "f757f064f1bfbaf9cdd1f41b31438b7765c7e9da6b4a19d249550c87ba46090a",
    "5/axial/json": "b2ffa8b7fb717db2c55b277b2d05146d1a677088974cf31a0daa1209cfa0701b",
    "5/axial/csv": "cd1ef3e00834521e22ec28b38cd471d9ac60abb50d30e87ce4a1e5052dd82a0e",
    "5/circular/json": "2dbcb591ec49a75542bc7842b9145405b139d65b7dd339e33a741a0b1cae3813",
    "5/circular/csv": "9e69412d59d46ffbb15d4e70627fa3542f967517a4cee12e641a9fc3cae13f7e",
    "6/axial/json": "7aefb0c11235e987ddabd7d5a657605c4a0c7df4fdbff943b59154a10a1cc489",
    "6/axial/csv": "e77e81d40e94e86c514617bedc726933bac01e0c2a753f8fffeacc9e0cbf52f9",
    "6/circular/json": "885f4793be706ec79b92619bf9e08f1ccdaf7c81d15872d9be432e345bafaed3",
    "6/circular/csv": "94e80cad29be8bef8f61e3e2232d0850ad45bf4305075573b8e74cc5b4913d94",
    "7/axial/json": "3d1ee407080f29f50ec83ae3d97346de595ef16573603601494f2f2e2e96874b",
    "7/axial/csv": "8fff84903b368c398e061ef778a0a7b3cb359c57cced97ceb98edbf9e101429d",
    "7/circular/json": "1c40817685e4a09ffdc8653cb8d4bad3fff15c1c0e3b2443b8124df6c9f7f68e",
    "7/circular/csv": "da1adf5800acb23e26593178a52c2bebc35d5e6c8de80dc9afb964f5e4e7aaf3",
    "8/axial/json": "0ce1994db8427620975d36713c07ce0fc9d337ad84eecf37343cd4307933a5b7",
    "8/axial/csv": "49bcdf7bdd09ca0ad8b212c859ae8cd55a96211e6cfac3085d3c85d836632200",
    "8/circular/json": "e6dfb7f26e9b9561c3d98203135fbbafe5efc4dcd0a3195a11f5ff7966ceeaf8",
    "8/circular/csv": "56d3d07304c4a6ff9eec5efd3a5bea4d49c662d3c875e0ea49eb329427e4c709",
    "9/axial/json": "b443bebf4e397a16062cbf035e5cc6e8472c46c53f584ccc73a434a7414fb6f2",
    "9/axial/csv": "1de98dab44f7c81a0fb4f1f28bb0fe5a98a0cd7598f208b09fb3d25a9caf165d",
    "9/circular/json": "7874b48eb14addf65639d8c0fb74bd946ed5f45a66f476e8a902232fee0e961d",
    "9/circular/csv": "a8476b020dc489d9579c40e5d1384bdca9645f12ac8beef6e07e93c054064d95",
    "10/axial/json": "8449cb50f2a4aa29558bb3df38a66ea116305a353a8aa93c5461fb82bc1e7c95",
    "10/axial/csv": "0fe359a2cbb49e0d8b6d7d2df04a11763e7bb2557298177a9cb59645c047495e",
    "10/circular/json": "8a603f5ee444080eed918cbf9c55013b92afb993e5ebbbeaa9cf64922b794b37",
    "10/circular/csv": "0fb98628dc887ca742b7ea920c57dadf7c4a64e34252b999cffacbc99b55b86a",
    "11/axial/json": "b9d9eee5a2da88588e1e85ae0efe44490fc6a5d1a0020b2b660de859e971d520",
    "11/axial/csv": "27bc0e50c4208d99244df291653d2a55560b083bbde81d2c2859c4337279fafa",
    "11/circular/json": "ae2f0bfe5b53389b40c1fa4fcd54f50384c959380c4eb030f0ff26983ea094ce",
    "11/circular/csv": "cf9b545aa68dfb22755f9ea455adee416ebb9d9b2fafc029d7ad76534e01ae1a",
    "12/axial/json": "ca2f51e84484e5d2a94727399aa78b8fc1c94782fe574f0d4f83c88d2a7ccf89",
    "12/axial/csv": "e71c434db57e78a61ba21345612c3cd7a7c7dfff07ff0e947ec7429f9033b29b",
    "12/circular/json": "84769385e849a96a4c3e48d723a345f0a7e6ef32b63858f0d93c2ec1d5d70a0e",
    "12/circular/csv": "a09907d120158df26e0f26d02239428fe70aec76239e1a2a0288abafd741dd85",
    "20/axial/json": "8b14cb9b1d7d8f13d401df65d6c49e6181c115273c5da4a165cd7fa85ae368d1",
    "20/axial/csv": "5fe94a9ae14fedeaf8c4284075866f240dcd0e480a3d3227fa413d7bd50252e2",
    "20/circular/json": "e3f0bc156a416e8be85b92bd4210a8265b51f47e6d07a166fd157308c6c4531e",
    "20/circular/csv": "a21d974328cd647bc616a25212ca2a51b473225321dc04fb1b7d0be96742aa6d",
    "40/axial/json": "d07ac25828c463c979767d347a25e0ba3d20aef19e4741f25202a1f464bad118",
    "40/axial/csv": "dbd11562ba043ce26ae2bcff319ee0c14f1f613a2942329e224dab96fc759d6e",
    "40/circular/json": "6d0d2e6b8565a5566b0b8ba5e45c72c4e98cf4e16e67e50465195602a804b8fc",
    "40/circular/csv": "d17f5987f12244b2799c8805cafce8cad609df2ad6a03ddaf47f4a7d633cdbf5",
}

VERIFY_GOLDEN = {
    "sweep/jobs1": "3d39c7db52a2918d37e96906e80f2fb4f14a5c6e7a9ca926bcc9b0f58c11ca11",
    "sweep/jobs2": "3d39c7db52a2918d37e96906e80f2fb4f14a5c6e7a9ca926bcc9b0f58c11ca11",
    "sweep/100": "2c48b75a27df458f436657b55c755e6a6f653ddc4d745ab4abc889e9477afddc",
    "gcd": "5c574ed762818df665921bd41ba0023c02e6b7176e0805a722acd9e455cec8fe",
    "identity": "1460a0bca327f681d54c5d3d56df5bea634ca176a9b6bc6db5406fb916dcf151",
    "census/9": "c95366b95c5aab4a55d2f3c53e5c270113961a45e997598314d65fe482193421",
    "census/10": "8845b9cf28834a1cb3a085a2433458d6a2461f1bf90dac2e2672e08246b684fe",
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


@pytest.mark.parametrize("variant", sorted(RENDER_VARIANTS))
@pytest.mark.parametrize("family", ["axial", "circular"])
def test_render_variants_are_byte_identical(variant, family, tmp_path):
    digest = render_variant_digest(variant, family, tmp_path / "g.svg")
    assert digest == RENDER_VARIANT_GOLDEN[f"{variant}/{family}"]


@pytest.mark.parametrize("name", sorted(LIBRARY_GOLDEN))
def test_library_svg_is_byte_identical(name):
    doc = library_docs()[name]
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == LIBRARY_GOLDEN[name]


@pytest.mark.parametrize("m", ENUMERATE_MS)
@pytest.mark.parametrize("family", ["axial", "circular"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_enumerate_output_is_byte_identical(m, family, fmt):
    digest = hashlib.sha256(_run(enumerate_argv(m, family, fmt))).hexdigest()
    assert digest == ENUMERATE_GOLDEN[f"{m}/{family}/{fmt}"]


@pytest.mark.parametrize("m", range(3, 16))
def test_enumerate_json_records_match_the_per_record_reference(m):
    for family in ("axial", "circular"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(enumerate_argv(m, family, "json")) == 0
        if family == "axial":
            gens = [(r.a, r.b) for r in sorted(enumerate_axial(m))]
        else:
            gens = [(r.a, r.b, r.c) for r in sorted(enumerate_circular(m))]
        want = [reference_class_record(m, family, g) for g in gens]
        assert json.loads(out.getvalue()) == want


@pytest.mark.parametrize("name", sorted(VERIFY_GOLDEN))
def test_verify_output_is_byte_identical(name):
    digest = hashlib.sha256(_run(["verify", *VERIFY_ARGV[name]])).hexdigest()
    assert digest == VERIFY_GOLDEN[name]

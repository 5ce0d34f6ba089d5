"""Symmetric polygons on 3m circle vertices: counts, classes, proofs-by-search.

The package studies closed walks that visit all n = 3m points on a
circle exactly once.  Two families with m-fold symmetry are enumerated
in closed form (mirror-symmetric and rotation-only), and two
independent brute-force oracles re-derive every count so the formulas
can be checked rather than trusted.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A submodule is
# imported when it, or one of its names, is first read from the package
# (PEP 562), so ``import polysym`` alone imports none of them.
_EXPORTS = {
    "classification": ("Family", "FamilyTag", "classify", "side_period"),
    "enumeration": (
        "AxialRep",
        "CircularRep",
        "CountsRow",
        "MTooSmall",
        "NotPrime",
        "count_axial",
        "count_axial_prime",
        "count_circular",
        "count_circular_prime",
        "counts_table",
        "enumerate_axial",
        "enumerate_circular",
        "euler_phi",
        "expand_axial",
        "expand_circular",
    ),
    "oracle": (
        "NTooLarge",
        "NTooSmall",
        "OracleReport",
        "VerificationError",
        "census_full",
        "sweep_period3",
        "verify_census",
        "verify_identity",
        "verify_sweep",
        "verify_theorem_gcd",
    ),
    "polygon_core": (
        "EdgeSet",
        "InvalidSideTuple",
        "NotClosed",
        "PrematureClosure",
        "SideSymmetry",
        "SideTuple",
        "SymmetryProfile",
        "VertexCycle",
        "WalkError",
        "canonical_form",
        "canonical_period3",
        "cyclic_shift",
        "edge_set",
        "prefix_sums",
        "reflect_edges",
        "reversed_complement",
        "revolutions",
        "rotate_edges",
        "side_symmetry",
        "symmetry_profile",
        "validate_walk",
    ),
    "render": ("RenderOptions", "caption_for", "gallery_svg", "polygon_svg"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})

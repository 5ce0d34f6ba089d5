"""The sweep decides validity by walking, never by the gcd rule.

``sweep_period3`` promises that no residue or gcd condition is applied,
so that it checks the enumeration module rather than repeating it.  Its
shard and the walk kernel it calls must therefore name no ``gcd``,
``euler_phi`` or ``enumeration`` (nor any other name of that module), and
the kernel must group the sums by the set they walk rather than assume
which sums are valid.
"""

import ast
from pathlib import Path

import polysym.enumeration
import polysym.oracle

KERNEL = {"_sweep_shard", "_walk_sets", "_rotated_back", "_third_sides"}
FORBIDDEN = {"gcd", "euler_phi", "enumeration"} | {
    name
    for name, value in vars(polysym.enumeration).items()
    if getattr(value, "__module__", None) == polysym.enumeration.__name__
}


def kernel_functions():
    tree = ast.parse(Path(polysym.oracle.__file__).read_text(encoding="utf-8"))
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in KERNEL
    }


def names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Name):
            yield sub.id


def test_kernel_functions_exist():
    assert set(kernel_functions()) == KERNEL


def test_kernel_names_no_gcd_or_enumeration():
    for name, fn in kernel_functions().items():
        assert not FORBIDDEN & set(names_used(fn)), name


def test_kernel_calls_only_itself():
    # a helper outside the kernel could apply the rule on its behalf
    oracle_functions = {
        name for name, value in vars(polysym.oracle).items() if callable(value)
    }
    for name, fn in kernel_functions().items():
        called = {
            sub.func.id
            for sub in ast.walk(fn)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        }
        assert called & oracle_functions <= KERNEL, name

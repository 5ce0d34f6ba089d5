"""Worker processes start in one place: ``oracle._run_shards``.

The census hands its shards to that function, which opens a pool of
its own and closes it with the last result, so no caller passes a pool.
It is also the only place that imports ``multiprocessing``, when the
pool opens, so a process whose searches all run serially never loads it.
"""

import ast
from pathlib import Path

import polysym

PACKAGE = Path(polysym.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
STARTERS = {"Pool", "Process", "ProcessPoolExecutor"}


def functions():
    """(module, function node) for every function in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node


def names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def test_processes_start_only_in_run_shards():
    starters = {
        (module, fn.name)
        for module, fn in functions()
        if STARTERS & set(names_used(fn))
    }
    assert starters == {("oracle", "_run_shards")}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside = [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        assert not STARTERS & {n for s in outside for n in names_used(s)}, path.name


def multiprocessing_imports(node):
    """The line of each statement under ``node`` that imports
    ``multiprocessing`` or one of its submodules."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            modules = [alias.name for alias in sub.names]
        elif isinstance(sub, ast.ImportFrom) and sub.level == 0:
            modules = [sub.module]
        else:
            continue
        if any(m.partition(".")[0] == "multiprocessing" for m in modules):
            yield sub.lineno


def test_multiprocessing_is_imported_only_in_run_shards():
    everywhere = {
        (path.stem, line)
        for path in SOURCES
        for line in multiprocessing_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    in_run_shards = {
        (module, line)
        for module, fn in functions()
        if (module, fn.name) == ("oracle", "_run_shards")
        for line in multiprocessing_imports(fn)
    }
    assert in_run_shards
    assert everywhere == in_run_shards


def test_no_function_takes_a_pool():
    for module, fn in functions():
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        assert "pool" not in {p.arg for p in params if p is not None}, f"{module}.{fn.name}"

"""No code in the package starts a process.

Both searches run serially in the process that calls them, whatever
``jobs`` says, so no module imports a process API or forks.  Worker
processes once started in one place, ``oracle._run_shards``; that
function is deleted with the pool, so the place they may start in is
none, and the two tests named after it check exactly that.
"""

import ast
from pathlib import Path

import polysym

PACKAGE = Path(polysym.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PROCESS_MODULES = ("multiprocessing", "concurrent.futures", "subprocess")
STARTERS = {"Pool", "Process", "ProcessPoolExecutor"}


def process_uses(tree):
    """(line, name) of each import of a process module under ``tree``, in
    or below a function too, and of each ``fork`` name imported or looked
    up as an attribute (``os.fork``, ``os.forkpty``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in names:
            if name.rpartition(".")[2].startswith("fork") or any(
                name == m or name.startswith(m + ".") for m in PROCESS_MODULES
            ):
                yield node.lineno, name


def test_no_module_starts_a_process():
    found = [
        (path.name, line, name)
        for path in SOURCES
        for line, name in process_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


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


def test_processes_start_only_in_run_shards():
    # no function or module-level statement names a process starter,
    # and _run_shards itself is gone
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert not hasattr(polysym.oracle, "_run_shards")
    for module, tree in trees.items():
        assert not STARTERS & set(names_used(tree)), module


def test_multiprocessing_is_imported_only_in_run_shards():
    # nowhere, in or below a function either
    everywhere = {
        (path.stem, line)
        for path in SOURCES
        for line in multiprocessing_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert everywhere == set()


def test_no_function_takes_a_pool():
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = fn.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                assert "pool" not in {p.arg for p in params if p is not None}, (
                    f"{path.stem}.{fn.name}"
                )

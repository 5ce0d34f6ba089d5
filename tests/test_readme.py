"""README's Python examples run as written.

Each ```python block of README.md runs in a fresh namespace, in a
temporary working directory, so that a renamed or moved name breaks this
test rather than the documented example.  A line whose comment is a
Python literal, as in ``ps.count_circular(30)  # 2168``, must evaluate to
that literal.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def shown_values(block: str) -> list[tuple[str, object]]:
    """(expression, literal) for each line ``expression  # literal``."""
    pairs = []
    for line in block.splitlines():
        code, sep, comment = line.partition("  #")
        if not sep:
            continue
        try:
            pairs.append((code.strip(), ast.literal_eval(comment.strip())))
        except (ValueError, SyntaxError):
            continue  # a comment in words
    return pairs


def test_readme_has_python_examples():
    assert BLOCKS
    assert any(shown_values(block) for block in BLOCKS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), namespace)
    for code, value in shown_values(BLOCKS[index]):
        assert eval(code, namespace) == value, code

"""The README's library quick start runs and prints what its comments say,
and the package's public names resolve."""

import ast
import re
from pathlib import Path

import braidhom

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    # each expression statement with a trailing comment is checked against
    # the comment's leading value (up to a colon); everything else just runs
    source = quick_start_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        line = lines[stmt.end_lineno - 1]
        if isinstance(stmt, ast.Expr) and "#" in line:
            expected = line.split("#", 1)[1].split(":", 1)[0].strip()
            value = eval(code, namespace)
            assert repr(value) == expected, code
            checked.append(expected)
        else:
            exec(code, namespace)
    assert checked == ["[6, 9, 3, 0]", "True"]


def test_every_public_name_resolves():
    # `from braidhom import *` binds each name of __all__, once
    missing = [name for name in braidhom.__all__ if not hasattr(braidhom, name)]
    assert not missing
    assert len(set(braidhom.__all__)) == len(braidhom.__all__)

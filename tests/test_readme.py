"""The README's Python example runs as written and reads what its comments say."""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import pytest

from tempcert import documents

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["result"].compatible_both and namespace["result"].ppt
    assert not namespace["report"].compatible
    assert namespace["report"].test_min_eigenvalue == pytest.approx(-1.0)


def test_readme_kind_table_matches_the_schema_table():
    text = README.read_text(encoding="utf-8")
    header = "| kind | dimension fields | other required fields | optional fields |"
    rows = text.split(header + "\n")[1].split("\n\n")[0].splitlines()[1:]
    table = {}
    for row in rows:
        kind, *columns = [cell.strip() for cell in row.strip("|").split("|")]
        table[kind.strip("`")] = tuple(tuple(re.findall(r"`(\w+)`", cell)) for cell in columns)
    assert table == documents._KINDS

"""The README's Python example runs as written and reads what its comments say, and its tables match the code."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import re
import shlex
import warnings
from pathlib import Path

import pytest

import tempcert
from tempcert import cli, documents

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


def _table_rows(header: str) -> list[list[str]]:
    """The cells of each body row of the README table under ``header``; ``\\|`` is a pipe inside a cell."""
    rows = README.read_text(encoding="utf-8").split(header + "\n")[1].split("\n\n")[0].splitlines()[1:]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", row.strip("|"))] for row in rows]


def test_readme_kind_table_matches_the_schema_table():
    table = {}
    for kind, *columns in _table_rows("| kind | dimension fields | other required fields | optional fields |"):
        table[kind.strip("`")] = tuple(tuple(re.findall(r"`(\w+)`", cell)) for cell in columns)
    assert table == documents._KINDS


def test_readme_tolerance_table_matches_the_record():
    table = {}
    for field, _ in _table_rows("| field | gate |"):
        name, default = re.fullmatch(r"`(\w+)` \((\S+)\)", field).groups()
        table[name] = float(default)
    assert table == {field.name: field.default for field in dataclasses.fields(tempcert.Tolerances)}


def test_readme_rounding_table_matches_the_constants():
    table = {}
    for constant, module, floor in _table_rows("| constant | module | floor |"):
        name, value = re.fullmatch(r"`(\w+)` \((\d+)\)", constant).groups()
        assert floor.startswith(f"`{value} * ")
        table[module.strip("`"), name] = int(value)
    constants = {
        (info.name, name): value
        for info in pkgutil.iter_modules(tempcert.__path__)
        for name, value in vars(importlib.import_module(f"tempcert.{info.name}")).items()
        if re.fullmatch(r"_[A-Z_]+_ROUNDING", name)
    }
    assert table == constants


def test_readme_command_lines_parse(capsys):
    # Each command of the command-line block, its comment stripped, parses; parsing opens no file, so a flag
    # removed from the parser cannot linger in the README.
    block = README.read_text(encoding="utf-8").split("## Command line\n")[1].split("```sh\n")[1].split("```")[0]
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("tempcert ")]
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            args = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line.strip()!r}: {capsys.readouterr().err.strip()}")
        assert args.command == argv[0]

"""The environment table in docs/cli.md lists exactly the variables the
code reads: a documented variable nothing reads, or a variable read but
not documented, fails here."""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
CODE_DIRS = ("src", "benchmarks", "synthbench")

_ROW = re.compile(r"^\| `(VERC3_[A-Z0-9_]+|REPRO_[A-Z0-9_]+)")
_LITERAL = re.compile(r"[\"']((?:VERC3|REPRO)_[A-Z0-9_]+)[\"']")


def documented():
    text = (REPO_ROOT / "docs" / "cli.md").read_text()
    return sorted(
        match.group(1)
        for line in text.splitlines()
        if (match := _ROW.match(line))
    )


def read_by_code():
    names = set()
    for directory in CODE_DIRS:
        for path in (REPO_ROOT / directory).rglob("*.py"):
            names.update(_LITERAL.findall(path.read_text()))
    return names


@pytest.mark.parametrize("variable", documented())
def test_documented_variable_is_read(variable):
    assert variable in read_by_code()


def test_every_variable_read_is_documented():
    assert read_by_code() <= set(documented())

"""The package parses under the oldest Python that pyproject.toml accepts.

ast.parse with feature_version checks the grammar only: it rejects syntax
newer than 3.10 (such as except*), but not calls into a newer standard
library."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "strandprover").glob("*.py"))


def test_every_module_is_found():
    assert {"__init__.py", "cli.py", "graph.py", "logic.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

"""ctvm runs on the standard library alone (pyproject.toml declares no
dependencies), although third-party packages such as numpy may be
installed where it is developed and tested."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ctvm").glob("*.py"))


def absolute_imports(source: Path) -> list[tuple[int, str]]:
    """(line, top-level module) for each absolute import in a file."""
    found = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_package_imports_only_stdlib_and_itself():
    assert len(SOURCES) > 1
    outside = [
        f"{source.name}:{line}: {module}"
        for source in SOURCES
        for line, module in absolute_imports(source)
        if module != "ctvm" and module not in sys.stdlib_module_names
    ]
    assert outside == []

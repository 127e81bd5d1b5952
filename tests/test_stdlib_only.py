"""ctvm runs on the standard library alone (pyproject.toml declares no
dependencies), although third-party packages such as numpy may be
installed where it is developed and tested. It reads its bundled data
files by their path beside its modules, so a copied or installed,
unzipped package tree finds them without importlib.resources."""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "ctvm").glob("*.py"))


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


def run_python(code: str, pythonpath: Path) -> str:
    """Stdout of code run by a fresh interpreter without site, so no
    module that site preloads is imported before ctvm's own imports.
    It writes no bytecode: stripping every PYTHON* variable also drops
    PYTHONDONTWRITEBYTECODE, and .pyc files left under src/ would go
    stale when the source changes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pythonpath)
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_importlib_resources_out():
    out = run_python(
        "import sys, ctvm.cli; print('importlib.resources' in sys.modules)", SRC
    )
    assert out == "False\n"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    out = run_python(
        "import sys, ctvm.cli\n"
        "names = ('dataclasses', 'inspect', 'typing')\n"
        "print(*(name in sys.modules for name in names))\n",
        SRC,
    )
    assert out == "False False False\n"


def test_bundled_data_is_read_beside_a_copied_package(tmp_path):
    shutil.copytree(SRC / "ctvm", tmp_path / "ctvm")
    out = run_python(
        "import ctvm\n"
        "from ctvm.geofilter import load_region_table\n"
        "from ctvm.textproc import load_stopwords\n"
        "print(ctvm.__file__)\n"
        "print(len(load_stopwords()), len(load_region_table().entries))\n",
        tmp_path,
    )
    assert out == f"{tmp_path / 'ctvm' / '__init__.py'}\n570 50\n"

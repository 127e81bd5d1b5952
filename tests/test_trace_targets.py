"""perfbench's tracer wraps ctvm's functions at the names their callers
look up (TARGETS in perfbench/tracing.py). A traced run only prints a
target the program no longer has, so this test is what fails when one
is moved or renamed."""

from __future__ import annotations

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """Run perfbench/tracing.py's source as a module without importing
    it, so nothing is written under perfbench/ (no bytecode cache)."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_every_trace_target_exists():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()

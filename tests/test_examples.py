"""Smoke tests for the example scripts.

Every example must at least byte-compile; the fast ones also execute
end to end (with their output captured) so a broken public API surfaces
here rather than in a user's terminal. Every ``repro`` import in the
examples and benchmark scripts must also resolve, so a deleted module or
name cannot leave a script behind that only fails when it is run.
"""

import ast
import importlib
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES_DIR = ROOT / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Examples fast enough to execute in the suite (a few seconds each).
FAST_EXAMPLES = ["quickstart.py", "ordering_study.py", "analysis_toolkit.py"]


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_examples_directory_populated():
    names = {p.name for p in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 8


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def _repro_imports(path):
    """``(module, name)`` for each ``repro`` import in ``path``; ``name``
    is ``None`` for a plain ``import repro...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def _resolves(module, name):
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")
        return True
    except ImportError:
        return False


def test_script_imports_resolve():
    scripts = sorted((ROOT / "benchmarks").rglob("*.py")) + ALL_EXAMPLES
    dangling = [
        f"{path.relative_to(ROOT)}: {module}" + (f".{name}" if name else "")
        for path in scripts
        for module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert dangling == [], f"imports that no longer resolve: {dangling}"

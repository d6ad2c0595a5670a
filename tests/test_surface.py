"""The package's public surface: exported names, the benchmark's trace targets
and README's library example."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tokenwalk

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def test_traced_span_targets_resolve():
    # perfbench/traced.py wraps each target by name; a missing one crashes
    # every traced benchmark run.
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for span, (module_name, attr, _) in traced.SPANS.items():
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{span}: {module_name}.{attr} does not exist"
            target = getattr(target, part)
        assert callable(target), span


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(tokenwalk.__path__)))
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"tokenwalk.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# Exported, yet read by nothing in the library: perfbench/traced.py's SPANS
# names it, and test_traced_span_targets_resolve requires every such target.
_UNREAD_EXPORTS = {"spectral.matrix_log_term"}


def _public_names_and_reads() -> tuple[list, list]:
    """``(module, name, defining statement)`` for every ``__all__`` entry in
    ``src``, and ``(name, top-level statement)`` for every read of a name or an
    attribute there.  Assignment targets and ``__all__``'s strings are no reads."""
    public, reads = [], []
    for path in sorted(Path(tokenwalk.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                defined.update({t.id: stmt for t in stmt.targets if isinstance(t, ast.Name)})
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    reads.append((node.id if isinstance(node, ast.Name) else node.attr, stmt))
        if "__all__" in defined:
            names = ast.literal_eval(defined["__all__"].value)
            public += [(path.stem, name, defined.get(name)) for name in names]
    return public, reads


def test_every_public_name_has_a_src_reader():
    # The library ships what its commands run; a name only tests read is an
    # oracle, and lives in tests/oracles.py.  A read inside the name's own
    # definition (a recursion, say) does not count.
    public, reads = _public_names_and_reads()
    assert public
    unread = {
        f"{module}.{name}"
        for module, name, definition in public
        if not any(read == name and stmt is not definition for read, stmt in reads)
    }
    assert unread == _UNREAD_EXPORTS


@pytest.mark.parametrize("name", ["accountant", "optim", "graphs", "spectral", "walk", "transition", "datasets"])
def test_numerical_modules_import_only_hashes_from_ioutil(name):
    # The CLI decides what is written and ioutil how; a numerical module that
    # imports a writer or reader has taken a file format back.
    source = (Path(tokenwalk.__path__[0]) / f"{name}.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("ioutil"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any(alias.name.endswith("ioutil") for alias in node.names), f"{name} imports all of ioutil"
    assert imported <= {"new_sha256", "sha256_of_text"}


def _modules_calling(*names: str) -> set[str]:
    """The ``src`` files that call a function or method named one of `names`."""
    callers = set()
    for path in sorted(Path(tokenwalk.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names:
                    callers.add(path.name)
    return callers


def test_only_transition_builds_chains():
    # Every chain is symmetric and doubly stochastic because only the
    # builders in transition.py make one; any other module takes a chain.
    assert _modules_calling("TransitionMatrix") == {"transition.py"}


def test_only_ioutil_makes_directories():
    # A file's directory appears with the file, so a refused run leaves none:
    # only ioutil's atomic writer makes one.
    assert _modules_calling("mkdir", "makedirs") == {"ioutil.py"}


def test_readme_quick_start_runs():
    # The README's library example, run as a user would paste it, with every
    # warning an error: a renamed or removed attribute fails here.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    assert block is not None, "README has no python block under 'Library quick start'"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", block.group(1)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr

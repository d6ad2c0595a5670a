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

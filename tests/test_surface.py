"""The package's public surface: exported names and the benchmark's trace targets."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import tokenwalk

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


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

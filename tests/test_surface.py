"""The package's public surface: exported names and the benchmark's trace targets."""

from __future__ import annotations

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

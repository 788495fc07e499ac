"""Every layer entry point the benchmark tracer rebinds still exists.

``perfbench/spans.py`` traces a layer by rebinding a name in the module that
imports it; if a refactor drops or renames such a name, traced benchmark
ops would break. This checks only that each name exists and is callable,
not that calls flow through it (the HIGH loop, for one, is traced through
``repro.mice.low``). It only reads ``perfbench/``.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve the module by name
    spec.loader.exec_module(mod)
    return mod.ENTRY_POINTS


@pytest.mark.parametrize("module,name,span", _entry_points())
def test_entry_point_callable(module, name, span):
    assert callable(getattr(importlib.import_module(module), name))

"""The benchmark's tracer patches names that matchkit still has.

`mkbench/tracing.py` wraps each `(module, attribute)` of its `HOOKS` for a
traced pass.  A refactor that drops or renames one of those names would
otherwise break only `mkbench/run.py --trace 1`, which this suite does not run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "mkbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("mkbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_every_traced_name_resolves():
    hooks = _hooks()
    assert hooks
    missing = [f"matchkit.{module}.{attr}" for module, attr, *_ in hooks
               if not callable(getattr(importlib.import_module(f"matchkit.{module}"), attr, None))]
    assert missing == []

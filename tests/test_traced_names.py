"""Every function the traced benchmark wraps still exists in the package.

``benchmarks/spans.py`` replaces the functions listed in its ``TRACED``
table by name; a deleted or renamed one would otherwise surface only as an
``AttributeError`` in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "benchmarks" / "spans.py"


def _traced() -> list[tuple]:
    if not SPANS.is_file():
        pytest.skip("benchmarks/spans.py is absent")
    spec = importlib.util.spec_from_file_location("conjrisk_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_function_resolves():
    missing = []
    for name, module, attr, cls, _ in _traced():
        home = importlib.import_module(f"conjrisk.{module}")
        if cls is None:
            found = hasattr(home, attr)
        else:
            owner = getattr(home, cls, None)
            found = owner is not None and attr in owner.__dict__
        if not found:
            missing.append(name)
    assert missing == []

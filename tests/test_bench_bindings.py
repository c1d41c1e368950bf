"""The traced benchmark run wraps bchrom's module bindings by name.  A
refactor that drops or moves one of them must fail here, in well under a
second, not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import bchrom  # noqa: F401  (imports every module the table names)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BINDINGS
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.BINDINGS
        if not callable(getattr(sys.modules.get(module), name, None))
    ]
    assert missing == []

"""The benchmark's tracer (``bench/tracing.py``) wraps fieldfit functions by
module and attribute name, so a rename in the library would silently drop
layers from ``bench/run.py --trace 1``.  These checks only read the table;
nothing is wrapped."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing(monkeypatch):
    # tracing.py imports its sibling module ``reference`` by plain name
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert len(tracing.WRAPPED) > 0
    missing = []
    for module_name, attr, _name, _counts in tracing.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []

"""The benchmark traces the program by wrapping named public calls; each must still exist."""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans() -> types.ModuleType:
    # Compiled from source so that nothing is written next to the benchmark.
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_call_resolves():
    targets = _load_spans().targets()
    assert targets
    missing = [name for owner, attr, name in targets if not callable(getattr(owner, attr, None))]
    assert missing == []

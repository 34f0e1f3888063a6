"""The benchmark traces the program by wrapping named public calls; each must still exist."""

import types
from pathlib import Path

import pytest

from agentaccel import pipeline
from agentaccel.cli import main
from agentaccel.kvstore import KVStore

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


def test_precompute_counters_match_the_store(precompute_cache_argv, tmp_path):
    # `kvstore.bytes_written` sums the entries `precompute` returns: one per
    # distinct prefix of each tag group.
    tracer = _load_spans().Tracer()
    with tracer.installed():
        assert main(precompute_cache_argv) == 0
    store = KVStore(tmp_path / "cache")
    assert tracer.counts["kvstore.bytes_written"] == store.total_bytes
    assert tracer.counts["kvstore.entries"] == len(store.entries)


@pytest.mark.parametrize("extract", ["fewshot", "all"])
def test_run_queries_builds_two_luts_per_query(bundle, plan, populated_store, extract):
    # `exspec.luts` and `exspec.lut_entries.mean` count `exspec.build_lut`
    # calls: one planner and one arbiter table per query, shared heads
    # included.
    tracer = _load_spans().Tracer()
    with tracer.installed():
        records = pipeline.run_queries(bundle, plan, populated_store, pipeline.RunSettings(extract=extract))
    assert len(records) == len(bundle.test)
    assert tracer.counts["exspec.luts"] == 2 * len(bundle.test)

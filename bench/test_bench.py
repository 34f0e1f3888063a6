"""Tests for the benchmark's own code.  Run with `python3 -m pytest bench -q`."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import run
import spans
import workloads
from verify import Checker

BENCH = Path(__file__).resolve().parent


def _span(name, start, end, parent=-1, query=-1):
    return [name, start, end, parent, query]


def test_self_time_subtracts_nested_children():
    records = [
        _span("outer", 0.0, 10.0),
        _span("child", 1.0, 4.0, parent=0),
        _span("grandchild", 2.0, 3.0, parent=1),
    ]
    assert spans.self_times(records) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_with_adjacent_and_overlapping_children():
    records = [
        _span("outer", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 3.0, 5.0, parent=0),  # adjacent to a
        _span("c", 4.0, 6.0, parent=0),  # overlaps b; the union counts once
        _span("d", 9.0, 12.0, parent=0),  # runs past its parent; clipped
    ]
    assert spans.self_times(records)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert spans.self_time_by_name(records + [_span("a", 20.0, 21.0)])["a"] == pytest.approx(3.0)


def test_tracer_assigns_query_ids_inside_run_queries():
    tracer = spans.Tracer()
    with tracer.span("cli.run"):
        with tracer.span(spans.RUN_QUERIES):
            with tracer.span("lm.train_markov"):
                pass
            for _ in range(2):
                with tracer.span(spans.RETRIEVE_TOOLS):
                    pass
                with tracer.span("exspec.decode"):
                    with tracer.span("lm.greedy_next"):
                        pass
    with tracer.span(spans.RETRIEVE_TOOLS):  # outside run_queries: no query
        pass
    queries = [(name, query) for name, _, _, _, query in tracer.spans]
    assert queries == [
        ("cli.run", -1), (spans.RUN_QUERIES, -1), ("lm.train_markov", -1),
        (spans.RETRIEVE_TOOLS, 0), ("exspec.decode", 0), ("lm.greedy_next", 0),
        (spans.RETRIEVE_TOOLS, 1), ("exspec.decode", 1), ("lm.greedy_next", 1),
        (spans.RETRIEVE_TOOLS, -1),
    ]
    assert [p for _, _, _, p, _ in tracer.spans] == [-1, 0, 1, 1, 1, 4, 1, 1, 7, -1]
    assert len(spans.query_latencies(tracer.spans)) == 2


@pytest.mark.parametrize(
    "samples, expected",
    [(10, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (240, 95.0), (300, 95.0),
     (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert spans.tail_percentile(samples) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert spans.percentile(values, 50.0) == 100
    assert spans.percentile(values, 95.0) == 190
    assert sum(v > spans.percentile(values, 95.0) for v in values) == 10


def _generated(tmp_path, name, seed, label):
    out = tmp_path / label
    workloads.write(workloads.WORKLOADS[name], seed, out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_seeded(tmp_path, name):
    first = _generated(tmp_path, name, 7, "a")
    assert first == _generated(tmp_path, name, 7, "b")
    other = _generated(tmp_path, name, 8, "c")
    assert first["test.jsonl"] != other["test.jsonl"]
    assert first["registry.json"] == other["registry.json"]


def test_wide_registry_queries_are_unique_per_family(tmp_path):
    files = _generated(tmp_path, "wide-registry", 3, "w")
    registry = json.loads(files["registry.json"])
    workload = workloads.WORKLOADS["wide-registry"]
    assert len(registry["tools"]) == 16 * workload.families
    tools_of = {}
    for line in (files["train.jsonl"] + files["test.jsonl"]).decode().splitlines():
        rec = json.loads(line)
        tools_of.setdefault(rec["query"], set()).add(tuple(rec["tools"]))
    # The oracle scorer keys ground truth by query text: one tool set per text.
    assert all(len(sets) == 1 for sets in tools_of.values())
    families = {tool.rsplit("_f", 1)[1] for sets in tools_of.values() for t in sets for tool in t}
    assert families == {str(f) for f in range(workload.families)}


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in doc["workloads"])


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("session")
    workloads.write(workloads.WORKLOADS["bundled-scripted"], 5, workdir)
    s = run.Session(workdir)
    s.setup()
    return s


def test_checked_run_passes_on_the_program(session):
    _, trace = session.run()
    reference, failed = session.checked_run()
    assert failed == set()
    session.tally_queries([trace], reference, failed)
    assert session.failed == 0


def test_checks_catch_a_corrupted_blob(session, tmp_path):
    import hashlib

    cache = session.dir / "cache"
    saved = tmp_path / "cache"
    shutil.copytree(cache, saved)
    try:
        # Flip the first KV byte of every blob and re-sign it, so only the
        # byte comparison against prefix_blob can notice.
        manifest = json.loads((cache / "manifest.json").read_text())
        for entry in manifest["entries"]:
            blob = cache / "blobs" / entry["blob"]
            raw = bytearray(blob.read_bytes())
            raw[20 + int.from_bytes(raw[16:20], "little")] ^= 0xFF
            blob.write_bytes(bytes(raw))
            entry["checksum"] = hashlib.sha256(raw).hexdigest()
        (cache / "manifest.json").write_text(json.dumps(manifest))
        checker = Checker()
        with checker.installed():
            session.run("corrupt_trace.jsonl")
        # Every query served from a corrupted blob fails, not one per blob.
        served = {q for _, _, by_len in checker._served.values() for qs in by_len.values() for q in qs}
        assert len(served) > len(manifest["entries"])
        assert checker.failed == served
    finally:
        shutil.rmtree(cache)
        shutil.copytree(saved, cache)


def test_checks_catch_a_wrong_decode(session, monkeypatch):
    from agentaccel import exspec

    original = exspec.decode

    def off_by_one(*args, **kwargs):
        out, stats = original(*args, **kwargs)
        return out[:-1], stats

    monkeypatch.setattr(exspec, "decode", off_by_one)
    checker = Checker()
    with checker.installed():
        session.run("broken_trace.jsonl")
    assert checker.failed == set(range(session.queries))


def test_traced_trace_matches_untraced(session):
    _, plain = session.run()
    session.tracer = spans.Tracer()
    try:
        with session.tracer.installed():
            _, traced = session.run()
    finally:
        tracer, session.tracer = session.tracer, None
    assert traced == plain
    names = {record[0] for record in tracer.spans}
    assert {"cli.run", spans.RUN_QUERIES, spans.RETRIEVE_TOOLS, "exspec.decode", "lm.greedy_next"} <= names
    assert len(spans.query_latencies(tracer.spans)) == session.queries

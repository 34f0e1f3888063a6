"""The benchmark traces and checks the program by wrapping named public calls; each must still exist and behave."""

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

from agentaccel import pipeline
from agentaccel.cli import main
from agentaccel.kvstore import MAGIC, KVStore, kv_size, prefix_blob

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str) -> types.ModuleType:
    # Compiled from source so that nothing is written next to the benchmark.
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_call_resolves():
    targets = _load("spans").targets()
    assert targets
    missing = [name for owner, attr, name in targets if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_precompute_counters_match_the_store(precompute_cache_argv, tmp_path):
    # `kvstore.bytes_written` sums the entries `precompute` returns: one per
    # distinct prefix of each tag group.
    tracer = _load("spans").Tracer()
    with tracer.installed():
        assert main(precompute_cache_argv) == 0
    store = KVStore(tmp_path / "cache")
    assert tracer.counts["kvstore.bytes_written"] == store.total_bytes
    assert tracer.counts["kvstore.entries"] == len(store.entries)


def test_run_queries_builds_two_luts_per_query(bundle, plan, populated_store):
    # `exspec.luts` and `exspec.lut_entries.mean` count `exspec.build_lut`
    # calls: one planner table of the few-shot region and one arbiter table
    # per query, the arbiter's shared head included.
    tracer = _load("spans").Tracer()
    with tracer.installed():
        records = pipeline.run_queries(bundle, plan, populated_store, pipeline.RunSettings())
    assert len(records) == len(bundle.test)
    assert tracer.counts["exspec.luts"] == 2 * len(bundle.test)


def test_run_queries_matches_two_prompts_per_query(bundle, plan, populated_store):
    # `kvstore.match.calls`, `kvstore.served_tokens_frac` and
    # `weaver.planner_uncacheable_frac` read `KVStore.longest_cached_prefix`
    # calls: one per planner and arbiter prompt, the heads each prompt
    # continues from resolved outside them; the baseline matches no store.
    # The served counts are those of matching every prompt from the root.
    tracer = _load("spans").Tracer()
    with tracer.installed():
        pipeline.run_queries(bundle, plan, populated_store, pipeline.RunSettings())
    queries = {span[4] for span in tracer.spans if span[0] == "kvstore.match"}
    assert sum(span[0] == "kvstore.match" for span in tracer.spans) == 2 * len(bundle.test)
    assert queries == set(range(len(bundle.test)))
    assert tracer.counts["kvstore.matched_tokens"] == 203_307
    assert tracer.counts["planner.served_tokens"] == 170_487


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    """The fixture corpus with its plan and cache, made through the CLI as the benchmark makes them."""
    fx = tmp_path_factory.mktemp("checked")
    steps = [
        ["fixtures", "--out", fx],
        ["build-plan", "--dataset", fx / "train.jsonl", "--registry", fx / "registry.json",
         "--examples", fx / "examples.jsonl", "--vocab", fx / "vocab.json", "--out", fx / "plan.json"],
        ["precompute-cache", "--plan", fx / "plan.json", "--registry", fx / "registry.json",
         "--vocab", fx / "vocab.json", "--out", fx / "cache"],
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0
    return fx


def test_reopened_store_keeps_what_the_benchmark_reads(fx):
    # `bench/test_bench.py` flips the first KV byte of the blob of every
    # object in the manifest's `entries` list and re-signs its `checksum`;
    # `bench/verify.py` compares each served head of a blob with `prefix_blob`.
    store = KVStore(fx / "cache")
    assert type(store.entries) is dict
    records = json.loads(store.manifest_path.read_text())["entries"]
    assert type(records) is list
    assert {rec["blob"]: rec["checksum"] for rec in records} == {e.blob_name: e.checksum for e in store.entries.values()}
    for entry in store.entries.values():
        raw = (store.blob_dir / entry.blob_name).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == entry.checksum
        assert raw[:12] == MAGIC and int.from_bytes(raw[12:16], "little") == 1
        blob = store.load_blob(entry)
        assert raw[20 + int.from_bytes(raw[16:20], "little"):] == blob
        assert len(blob) == entry.byte_size == kv_size(entry.token_count, store.geometry)
        for n in (1, entry.token_count):
            assert blob[: kv_size(n, store.geometry)] == prefix_blob(entry.key[:n], store.geometry)


@pytest.mark.parametrize("model", ["scripted", "markov"])
def test_output_checker_passes_every_query_of_a_run(fx, monkeypatch, model):
    # The benchmark's output checks rely on `settings.jobs`, the `store=`
    # keyword of the prompt calls and the planner decoding before the arbiter.
    monkeypatch.setitem(sys.modules, "spans", _load("spans"))
    checker = _load("verify").Checker()
    with checker.installed():
        assert main(["run", "--config", str(fx / "run.json"), "--model", model, "--trace", str(fx / f"{model}.jsonl")]) == 0
    assert checker.queries == 60
    assert checker.failed == set()
    assert checker._served  # served cache entries had their blobs checked


def test_simulate_writes_the_report_keys_the_benchmark_reads(fx, tmp_path):
    # `bench/run.py` reads its modeled metrics from these four keys of the
    # report, and divides the `pw_es` total by the query count.
    trace, out = tmp_path / "trace.jsonl", tmp_path / "report.json"
    assert main(["run", "--config", str(fx / "run.json"), "--trace", str(trace)]) == 0
    argv = ["simulate", "--trace", trace, "--device", "m4-pro", "--geometry", "7b-class", "--tax", "ideal",
            "--tool-seconds", 0.4, "--toolrag-seconds", 0.66, "--out", out]
    assert main([str(a) for a in argv]) == 0
    report = json.loads(out.read_text())
    cells, speedups = report["cells"], report["speedups"]
    for name in ("pw", "es", "pw_es"):
        assert speedups[name] == cells["baseline"]["total"] / cells[name]["total"] > 1.0
    pw_es = cells["pw_es"]
    # `total` is the sum of the stages; the load hidden behind other stages is not in it.
    assert pw_es["total"] == pytest.approx(sum(pw_es["seconds"].values()), rel=1e-12)
    assert pw_es["ssd_load_hidden"] > pw_es["seconds"]["ssd_load"] > 0

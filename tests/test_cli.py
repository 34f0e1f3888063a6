import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from agentaccel import corpus, exspec, pipeline, simulator
from agentaccel.cli import main
from agentaccel.clusterplan import ClusterPlan
from agentaccel.weaver import region_tokens


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """fixtures -> build-plan -> precompute-cache, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    fx = root / "fx"
    assert run_cli("fixtures", "--out", str(fx)) == 0
    assert (
        run_cli(
            "build-plan",
            "--dataset", str(fx / "train.jsonl"),
            "--registry", str(fx / "registry.json"),
            "--examples", str(fx / "examples.jsonl"),
            "--vocab", str(fx / "vocab.json"),
            "--budget", "15",
            "--rank", "8",
            "--seed", "11",
            "--out", str(fx / "plan.json"),
        )
        == 0
    )
    assert (
        run_cli(
            "precompute-cache",
            "--plan", str(fx / "plan.json"),
            "--registry", str(fx / "registry.json"),
            "--vocab", str(fx / "vocab.json"),
            "--geometry", "desk",
            "--out", str(fx / "cache"),
        )
        == 0
    )
    return fx


def test_offline_commands_are_idempotent(workdir, tmp_path):
    plan_a = (workdir / "plan.json").read_bytes()
    out_b = tmp_path / "plan_b.json"
    assert (
        run_cli(
            "build-plan",
            "--dataset", str(workdir / "train.jsonl"),
            "--registry", str(workdir / "registry.json"),
            "--examples", str(workdir / "examples.jsonl"),
            "--vocab", str(workdir / "vocab.json"),
            "--budget", "15",
            "--rank", "8",
            "--seed", "11",
            "--out", str(out_b),
        )
        == 0
    )
    assert out_b.read_bytes() == plan_a


def test_fixture_regeneration_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("fixtures", "--out", str(a)) == 0
    assert run_cli("fixtures", "--out", str(b)) == 0
    for name in ("registry.json", "train.jsonl", "test.jsonl", "examples.jsonl", "vocab.json", "run.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_produces_one_record_per_query(workdir):
    assert run_cli("run", "--config", str(workdir / "run.json")) == 0
    lines = [json.loads(l) for l in (workdir / "trace.jsonl").read_text().splitlines() if l.strip()]
    header, records = lines[0], lines[1:]
    assert header["kind"] == "header"
    assert "provenance" in header
    test_count = sum(1 for l in (workdir / "test.jsonl").read_text().splitlines() if l.strip())
    assert len(records) == test_count


def test_selective_modes_agree_on_output_tokens(workdir, tmp_path):
    on = tmp_path / "on.jsonl"
    off = tmp_path / "off.jsonl"
    assert run_cli("run", "--config", str(workdir / "run.json"), "--selective", "on", "--trace", str(on)) == 0
    assert run_cli("run", "--config", str(workdir / "run.json"), "--selective", "off", "--trace", str(off)) == 0

    def outputs(path):
        out = {}
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            if doc.get("kind") == "header":
                continue
            out[doc["query_id"]] = (
                doc["planner"]["output_tokens"],
                doc["arbiter"]["output_tokens"],
            )
        return out

    assert outputs(on) == outputs(off)


def test_simulate_and_report(workdir, tmp_path, capsys):
    trace = workdir / "trace.jsonl"
    if not trace.exists():
        assert run_cli("run", "--config", str(workdir / "run.json")) == 0
    report = tmp_path / "report.json"
    assert run_cli("simulate", "--trace", str(trace), "--device", "m4-pro", "--geometry", "7b-class", "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert set(doc["cells"]) == {"baseline", "pw", "es", "pw_es"}
    assert doc["speedups"]["pw_es"] >= max(doc["speedups"]["pw"], doc["speedups"]["es"])
    csv_out = tmp_path / "report.csv"
    assert run_cli("report", "--report", str(report), "--format", "csv", "--out", str(csv_out)) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "cell,stage,seconds,fraction"
    assert any(line.startswith("pw_es,speedup,") for line in lines)
    hidden = {line.split(",")[0]: float(line.split(",")[2]) for line in lines if ",ssd_load_hidden," in line}
    assert hidden == pytest.approx({name: doc["cells"][name]["ssd_load_hidden"] for name in simulator.CELLS})
    assert hidden["pw_es"] > 0 and hidden["baseline"] == 0


def test_report_csv_equals_to_csv(workdir, tmp_path, capsys):
    trace = workdir / "trace.jsonl"
    if not trace.exists():
        assert run_cli("run", "--config", str(workdir / "run.json")) == 0
    config = simulator.SimConfig(
        device=simulator.device_presets()["m4-pro"],
        geometry=simulator.geometry_presets()["7b-class"],
    )
    report = simulator.simulate_pipeline(simulator.load_trace(trace), config)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
    capsys.readouterr()
    assert run_cli("report", "--report", str(report_path), "--format", "csv") == 0
    assert capsys.readouterr().out == report.to_csv()


def test_simulate_missing_trace_fails_cleanly(tmp_path, capsys):
    rc = run_cli("simulate", "--trace", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "r.json"))
    captured = capsys.readouterr()
    assert rc != 0
    err_lines = [l for l in captured.err.strip().splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ")


def _assert_single_error(rc, capsys) -> str:
    assert rc == 1
    err_lines = [l for l in capsys.readouterr().err.strip().splitlines() if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ")
    return err_lines[0]


def test_precompute_into_store_of_other_geometry_fails_cleanly(workdir, capsys):
    # Any store is refused before geometries are compared (see the next test);
    # `KVStore.precompute` still refuses a merge across geometries.
    manifest = (workdir / "cache" / "manifest.json").read_bytes()
    rc = run_cli(
        "precompute-cache",
        "--plan", str(workdir / "plan.json"),
        "--registry", str(workdir / "registry.json"),
        "--vocab", str(workdir / "vocab.json"),
        "--geometry", "7b-class",
        "--out", str(workdir / "cache"),
    )
    _assert_single_error(rc, capsys)
    assert (workdir / "cache" / "manifest.json").read_bytes() == manifest


def test_second_precompute_into_a_store_fails_cleanly(workdir, tmp_path, capsys):
    # A merge would keep entries the plan never chose, and `run` would serve them.
    cache = _precompute(workdir, tmp_path, workdir / "plan.json", workdir / "vocab.json")
    before = {path: path.read_bytes() for path in cache.rglob("*") if path.is_file()}
    argv = ["--plan", str(workdir / "plan.json"), "--registry", str(workdir / "registry.json"), "--vocab", str(workdir / "vocab.json")]
    message = _assert_single_error(run_cli("precompute-cache", *argv, "--geometry", "desk", "--out", str(cache)), capsys)
    assert str(cache) in message and "empty" in message
    assert {path: path.read_bytes() for path in cache.rglob("*") if path.is_file()} == before


def test_manifest_without_geometry_fails_cleanly(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "cache" / "manifest.json").read_text())
    del doc["geometry"]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    rc = run_cli("run", "--config", str(workdir / "run.json"), "--cache", str(tmp_path), "--trace", str(tmp_path / "t.jsonl"))
    _assert_single_error(rc, capsys)


_MANIFEST_SHAPES = {
    "not_an_object": (lambda doc: [], "not a JSON object"),
    "entry_not_an_object": (lambda doc: dict(doc, entries=[1]), "entries[0] is not an object"),
    "version_missing": (lambda doc: {k: v for k, v in doc.items() if k != "version"}, "re-run precompute-cache"),
    "version_other": (lambda doc: dict(doc, version=1), "re-run precompute-cache"),
}


@pytest.mark.parametrize("shape", list(_MANIFEST_SHAPES))
@pytest.mark.parametrize("command", ["run", "precompute-cache"])
def test_manifest_of_wrong_shape_fails_cleanly(workdir, tmp_path, capsys, shape, command):
    doc = json.loads((workdir / "cache" / "manifest.json").read_text())
    mangle, message = _MANIFEST_SHAPES[shape]
    (tmp_path / "manifest.json").write_text(json.dumps(mangle(doc)))
    if command == "run":
        argv = ["run", "--config", str(workdir / "run.json"), "--cache", str(tmp_path), "--trace", str(tmp_path / "t.jsonl")]
    else:
        argv = [
            "precompute-cache",
            "--plan", str(workdir / "plan.json"),
            "--registry", str(workdir / "registry.json"),
            "--vocab", str(workdir / "vocab.json"),
            "--geometry", "desk",
            "--out", str(tmp_path),
        ]
    assert message in _assert_single_error(run_cli(*argv), capsys)


@pytest.mark.parametrize(
    "field, corrupt",
    [
        # An entry's key is the path to its `node` (format version 1 held the key itself).
        pytest.param("node", lambda rec: {"node": str(rec["node"])}, id="key_of_strings"),
        pytest.param("node", lambda rec: {"node": [rec["node"]]}, id="key_not_a_list"),
        pytest.param("node", lambda rec: {"node": True}, id="key_of_bools"),
        pytest.param("token_count", lambda rec: {"token_count": str(rec["token_count"])}, id="token_count_a_string"),
        pytest.param("token_count", lambda rec: {"token_count": rec["token_count"] + 1}, id="token_count_not_key_length"),
        pytest.param("byte_size", lambda rec: {"byte_size": str(rec["byte_size"])}, id="byte_size_a_string"),
        pytest.param("tag", lambda rec: {"tag": "dynamic"}, id="unknown_tag"),
        pytest.param("blob", lambda rec: {"blob": 5}, id="blob_not_a_string"),
        pytest.param("checksum", lambda rec: {"checksum": None}, id="checksum_not_a_string"),
        pytest.param("key_hash", lambda rec: {"key_hash": 5}, id="key_hash_not_a_string"),
    ],
)
def test_manifest_entry_of_wrong_type_fails_cleanly(workdir, tmp_path, capsys, field, corrupt):
    doc = json.loads((workdir / "cache" / "manifest.json").read_text())
    doc["entries"][0].update(corrupt(doc["entries"][0]))
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    rc = run_cli("run", "--config", str(workdir / "run.json"), "--cache", str(tmp_path), "--trace", str(tmp_path / "t.jsonl"))
    assert f"entries[0].{field} " in _assert_single_error(rc, capsys)
    assert not (tmp_path / "t.jsonl").exists()


def _set(*path, value):
    """A manifest mangle that replaces the part at `path` (keys and indices) with `value` of it."""

    def mangle(doc):
        *parents, last = path
        for step in parents:
            doc = doc[step]
        doc[last] = value(doc[last])

    return mangle


def _as_version_1(doc):
    """The manifest as format version 1 wrote it: each entry holds its whole key, and there are no edges."""
    edges = doc.pop("edges")
    doc["version"] = 1
    for rec in doc["entries"]:
        key, node = [], rec.pop("node")
        while node:
            node, run = edges[node - 1]
            key[:0] = run
        rec["key"] = key


@pytest.mark.parametrize(
    "mangle, named",
    [
        pytest.param(_set("edges", 0, 1, value=lambda run: [str(t) for t in run]), "edges[0] is not a [parent node, token ids] pair", id="edge_tokens_of_strings"),
        pytest.param(_set("edges", 1, 0, value=lambda parent: 2), "edges[1] has parent 2, expected an earlier node", id="parent_not_earlier"),
        pytest.param(_set("edges", 0, 0, value=lambda parent: -1), "edges[0] has parent -1", id="parent_negative"),
        pytest.param(_set("edges", 1, 1, value=lambda run: []), "edges[1] has no tokens", id="edge_without_tokens"),
        pytest.param(_set("edges", value=lambda edges: edges + edges[:1]), "starts with the same token as an earlier edge from node 0", id="sibling_edges_share_a_token"),
        pytest.param(_set("entries", 0, "node", value=lambda node: 0), "entries[0].node is 0, expected the end of an edge", id="node_the_root"),
        pytest.param(_set("entries", 0, "node", value=lambda node: 10**6), "entries[0].node is 1000000", id="node_past_the_edges"),
        pytest.param(_set("entries", 0, "token_count", value=lambda n: n - 1), "entries[0].token_count has the wrong value", id="token_count_not_node_depth"),
        pytest.param(_set("entries", 0, "byte_size", value=lambda n: n + 1), "entries[0].byte_size has the wrong value", id="byte_size_not_kv_size"),
        pytest.param(_as_version_1, "format version 1, not 2: re-run precompute-cache", id="version_1_with_keys"),
    ],
)
def test_manifest_tree_of_wrong_structure_fails_cleanly(workdir, tmp_path, capsys, mangle, named):
    doc = json.loads((workdir / "cache" / "manifest.json").read_text())
    mangle(doc)
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    rc = run_cli("run", "--config", str(workdir / "run.json"), "--cache", str(tmp_path), "--trace", str(tmp_path / "t.jsonl"))
    assert named in _assert_single_error(rc, capsys)
    assert not (tmp_path / "t.jsonl").exists()


def test_trace_line_not_an_object_fails_cleanly(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("[1, 2]\n")
    rc = run_cli("simulate", "--trace", str(trace), "--out", str(tmp_path / "r.json"))
    _assert_single_error(rc, capsys)


def _absolute_config(workdir, tmp_path, **paths) -> dict:
    """The workdir's run.json with absolute paths, a trace under tmp_path and `paths` applied."""
    cfg = json.loads((workdir / "run.json").read_text())
    cfg["paths"] = {key: str(workdir / rel) for key, rel in cfg["paths"].items()}
    cfg["paths"].update(trace=str(tmp_path / "t.jsonl"), **paths)
    return cfg


def _run_config(tmp_path, cfg) -> int:
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    return run_cli("run", "--config", str(tmp_path / "run.json"))


def _plan_without_clusters(doc):
    del doc["clusters"]
    return doc


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda doc: [], id="not_an_object"),
        pytest.param(lambda doc: {"clusters": 5, "order": [], "single_examples": [], "cached_leaves": []}, id="clusters_not_a_list"),
        pytest.param(_plan_without_clusters, id="missing_clusters"),
        pytest.param(lambda doc: dict(doc, order=[999]), id="order_names_unknown_cluster"),
        pytest.param(lambda doc: dict(doc, cached_leaves=[7]), id="combination_not_a_list"),
        pytest.param(
            lambda doc: dict(doc, cached_leaves=[dict(leaf, tools=leaf["tools"][::-1]) for leaf in doc["cached_leaves"]]),
            id="combinations_out_of_plan_order",
        ),
        pytest.param(
            lambda doc: dict(doc, cached_leaves=[{"tools": ["no_such_tool"], "example_id": "", "example_tokens": []}]),
            id="tool_set_names_unknown_tool",
        ),
        pytest.param(lambda doc: dict(doc, cached_leaves=[dict(doc["cached_leaves"][0], example_tokens=None)]), id="leaf_without_tokens"),
        pytest.param(lambda doc: dict(doc, single_examples=[{"tool": "x", "example_id": "e1"}]), id="single_example_without_tokens"),
    ],
)
def test_plan_of_wrong_shape_fails_cleanly(workdir, tmp_path, capsys, corrupt):
    (tmp_path / "plan.json").write_text(json.dumps(corrupt(json.loads((workdir / "plan.json").read_text()))))
    cfg = _absolute_config(workdir, tmp_path, plan=str(tmp_path / "plan.json"))
    assert str(tmp_path / "plan.json") in _assert_single_error(_run_config(tmp_path, cfg), capsys)
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("command", ["run", "precompute-cache"])
def test_plan_of_an_older_format_asks_for_build_plan(workdir, tmp_path, capsys, command):
    # An older build-plan wrote cluster-id combinations where cached leaves
    # and single-tool examples now stand.
    doc = json.loads((workdir / "plan.json").read_text())
    del doc["cached_leaves"], doc["single_examples"]
    doc["cached_combinations"] = [[doc["order"][0]]]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    if command == "run":
        rc = _run_config(tmp_path, _absolute_config(workdir, tmp_path, plan=str(plan)))
    else:
        argv = ["--plan", str(plan), "--registry", str(workdir / "registry.json"), "--vocab", str(workdir / "vocab.json")]
        rc = run_cli("precompute-cache", *argv, "--out", str(tmp_path / "cache"))
    message = _assert_single_error(rc, capsys)
    assert str(plan) in message and message.endswith("re-run build-plan")
    assert not (tmp_path / "t.jsonl").exists() and not (tmp_path / "cache").exists()


def test_plan_of_cached_tool_sets_asks_for_build_plan(workdir, tmp_path, capsys):
    # Plans that cached tool sets' leaves without their top example.
    doc = json.loads((workdir / "plan.json").read_text())
    doc["cached_tool_sets"] = [leaf["tools"] for leaf in doc.pop("cached_leaves")]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    message = _assert_single_error(_run_config(tmp_path, _absolute_config(workdir, tmp_path, plan=str(plan))), capsys)
    assert f"plan {plan} holds cached_tool_sets" in message and message.endswith("re-run build-plan")
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize(
    "key, name, message",
    [
        pytest.param("vocab", "missing.json", "vocabulary", id="vocab_missing"),
        pytest.param("cachedir", "empty", "manifest", id="cachedir_without_manifest"),
        pytest.param("cachedir", "missing", "manifest", id="cachedir_missing"),
    ],
)
def test_run_with_unusable_input_fails_cleanly(workdir, tmp_path, capsys, key, name, message):
    (tmp_path / "empty").mkdir()
    rc = _run_config(tmp_path, _absolute_config(workdir, tmp_path, **{key: str(tmp_path / name)}))
    assert message in _assert_single_error(rc, capsys)
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda cfg: [], id="not_an_object"),
        pytest.param(lambda cfg: dict(cfg, paths=5), id="paths_not_an_object"),
        pytest.param(lambda cfg: dict(cfg, paths=dict(cfg["paths"], registry=7)), id="path_not_a_string"),
        pytest.param(lambda cfg: dict(cfg, exspec=5), id="knob_section_not_an_object"),
        pytest.param(lambda cfg: dict(cfg, run=dict(cfg["run"], max_tokens="x")), id="knob_of_wrong_type"),
        pytest.param(lambda cfg: dict(cfg, toolrag=dict(cfg["toolrag"], tau=True)), id="bool_for_a_number"),
    ],
)
def test_run_config_of_wrong_shape_fails_cleanly(workdir, tmp_path, capsys, corrupt):
    _assert_single_error(_run_config(tmp_path, corrupt(_absolute_config(workdir, tmp_path))), capsys)
    assert not (tmp_path / "t.jsonl").exists()


def test_run_refuses_a_train_file_the_plan_was_not_built_from(workdir, tmp_path, capsys):
    lines = (workdir / "train.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "train.jsonl").write_text("".join(lines[1:]))  # still a valid dataset
    rc = _run_config(tmp_path, _absolute_config(workdir, tmp_path, train=str(tmp_path / "train.jsonl")))
    assert "build-plan" in _assert_single_error(rc, capsys)
    assert not (tmp_path / "t.jsonl").exists()


def _other_registry(workdir, tmp_path) -> Path:
    """The fixture registry with two words of one tool description swapped: valid, but not the plan's."""
    doc = json.loads((workdir / "registry.json").read_text())
    words = doc["tools"][0]["description"].split(" ")
    words[0], words[1] = words[1], words[0]
    doc["tools"][0]["description"] = " ".join(words)
    path = tmp_path / "other_registry.json"
    path.write_text(json.dumps(doc))
    return path


def _other_examples(workdir, tmp_path) -> Path:
    """The fixture example db without its first example: valid, but not the plan's."""
    path = tmp_path / "other_examples.jsonl"
    path.write_text("".join((workdir / "examples.jsonl").read_text().splitlines(keepends=True)[1:]))
    return path


@pytest.mark.parametrize("key, other", [("registry", _other_registry), ("examples", _other_examples)], ids=["registry", "examples"])
def test_run_refuses_an_input_the_plan_was_not_built_from(workdir, tmp_path, capsys, key, other):
    # A plan's clusters and cached combinations are made from its registry
    # and example db; under others the woven prefixes match no cache entry.
    path = other(workdir, tmp_path)
    message = _assert_single_error(_run_config(tmp_path, _absolute_config(workdir, tmp_path, **{key: str(path)})), capsys)
    assert str(path) in message and "build-plan" in message
    assert not (tmp_path / "t.jsonl").exists()


def test_precompute_cache_refuses_a_registry_other_than_the_plans(workdir, tmp_path, capsys):
    path = _other_registry(workdir, tmp_path)
    argv = ["--plan", str(workdir / "plan.json"), "--registry", str(path), "--vocab", str(workdir / "vocab.json")]
    message = _assert_single_error(run_cli("precompute-cache", *argv, "--geometry", "desk", "--out", str(tmp_path / "cache")), capsys)
    assert str(path) in message and "build-plan" in message
    assert not (tmp_path / "cache").exists()


def test_run_refuses_a_plan_without_a_dataset_hash(workdir, tmp_path, capsys):
    plan_doc = json.loads((workdir / "plan.json").read_text())
    del plan_doc["provenance"]["dataset_sha256"]
    (tmp_path / "plan.json").write_text(json.dumps(plan_doc))
    rc = _run_config(tmp_path, _absolute_config(workdir, tmp_path, plan=str(tmp_path / "plan.json")))
    message = _assert_single_error(rc, capsys)
    assert "dataset_sha256" in message and "build-plan" in message
    assert not (tmp_path / "t.jsonl").exists()


def test_build_plan_ships_the_train_draft_table_and_the_vocabulary_hash(workdir):
    plan = ClusterPlan.load(workdir / "plan.json")
    bundle = pipeline.load_bundle(
        workdir / "registry.json", workdir / "train.jsonl", None, workdir / "examples.jsonl", workdir / "vocab.json"
    )
    assert plan.draft_table == pipeline.plan_draft_table(bundle)
    assert plan.provenance["vocab_sha256"] == hashlib.sha256((workdir / "vocab.json").read_bytes()).hexdigest()


def test_run_records_lut_size_and_backup_rounds(workdir, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert run_cli("run", "--config", str(workdir / "run.json"), "--trace", str(trace)) == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
    assert all(r[role]["decode"]["lut_size"] > 0 for r in records for role in ("planner", "arbiter"))
    assert sum(r["planner"]["decode"]["backup_rounds"] for r in records) > 0
    assert all(r["arbiter"]["decode"]["backup_rounds"] == 0 for r in records)
    # Only the planner drafts from the plan grammar.
    assert sum(r["planner"]["decode"]["grammar_drafts"] for r in records) > 0
    assert all(r["arbiter"]["decode"]["grammar_drafts"] == 0 for r in records)


def _other_vocab(workdir, tmp_path) -> Path:
    """The fixture vocabulary with its ids reversed: valid, but every key differs."""
    vocab = json.loads((workdir / "vocab.json").read_text())
    ids = sorted(vocab.values(), reverse=True)
    path = tmp_path / "other_vocab.json"
    path.write_text(json.dumps(dict(zip(sorted(vocab, key=vocab.get), ids))))
    return path


@pytest.mark.parametrize("given", ["other", "none"])
def test_run_refuses_a_vocabulary_the_plan_was_not_built_from(workdir, tmp_path, capsys, given):
    cfg = _absolute_config(workdir, tmp_path, vocab=str(_other_vocab(workdir, tmp_path)))
    if given == "none":
        del cfg["paths"]["vocab"]
    message = _assert_single_error(_run_config(tmp_path, cfg), capsys)
    assert "vocabulary" in message and (given == "none" or "plan" in message)
    assert not (tmp_path / "t.jsonl").exists()


def test_run_refuses_a_plan_without_a_vocabulary_hash(workdir, tmp_path, capsys):
    plan_doc = json.loads((workdir / "plan.json").read_text())
    del plan_doc["provenance"]["vocab_sha256"]
    (tmp_path / "plan.json").write_text(json.dumps(plan_doc))
    rc = _run_config(tmp_path, _absolute_config(workdir, tmp_path, plan=str(tmp_path / "plan.json")))
    message = _assert_single_error(rc, capsys)
    assert "vocab_sha256" in message and "build-plan" in message


def _precompute(workdir, tmp_path, plan, vocab) -> Path:
    cache = tmp_path / "cache"
    argv = ["--plan", str(plan), "--registry", str(workdir / "registry.json"), "--vocab", str(vocab)]
    assert run_cli("precompute-cache", *argv, "--geometry", "desk", "--out", str(cache)) == 0
    return cache


def _cache_of(case, workdir, tmp_path) -> Path:
    """A cache that does not belong to the workdir's plan, vocabulary and registry."""
    if case in ("other_vocabulary", "other_registry"):
        # precompute-cache refuses a vocabulary or registry other than the
        # plan's, so the store's provenance is edited to name one.
        cache = _precompute(workdir, tmp_path, workdir / "plan.json", workdir / "vocab.json")
        provenance = json.loads((cache / "provenance.json").read_text())
        if case == "other_vocabulary":
            provenance["vocab_sha256"] = hashlib.sha256(_other_vocab(workdir, tmp_path).read_bytes()).hexdigest()
        else:
            provenance["registry_sha256"] = hashlib.sha256(_other_registry(workdir, tmp_path).read_bytes()).hexdigest()
        (cache / "provenance.json").write_text(json.dumps(provenance))
        return cache
    if case == "other_plan":
        plan_doc = json.loads((workdir / "plan.json").read_text())
        plan_doc["cached_leaves"] = plan_doc["cached_leaves"][:3]
        (tmp_path / "plan.json").write_text(json.dumps(plan_doc))
        return _precompute(workdir, tmp_path, tmp_path / "plan.json", workdir / "vocab.json")
    cache = _precompute(workdir, tmp_path, workdir / "plan.json", workdir / "vocab.json")
    (cache / "provenance.json").unlink()
    return cache


@pytest.mark.parametrize("case, message", [
    ("other_vocabulary", "vocabulary"), ("other_plan", "plan"), ("no_provenance", "provenance.json"), ("other_registry", "registry"),
])
@pytest.mark.parametrize("command", ["run", "emit"])
def test_cache_of_another_plan_or_vocabulary_is_refused(workdir, tmp_path, capsys, case, message, command):
    # Such a store would serve nothing: every planner token would go uncached.
    cache = _cache_of(case, workdir, tmp_path)
    out, emit = tmp_path / "out.json", tmp_path / "queries"
    flags = ["--emit", str(emit)] if command == "emit" else []
    rc = run_cli("run", "--config", str(workdir / "run.json"), "--cache", str(cache), "--trace", str(out), *flags)
    error = _assert_single_error(rc, capsys)
    assert message in error and "precompute-cache" in error
    assert not out.exists() and not emit.exists()


@pytest.mark.parametrize("model, parses", [("scripted", 0), ("markov", 1)])
def test_run_parses_the_train_split_only_for_the_markov_model(workdir, tmp_path, monkeypatch, model, parses):
    # A scripted run with the oracle scorer finds every query in the test
    # split; the Markov chain is trained on the train split.
    loaded = []
    load_dataset = corpus.load_dataset

    def counting(path, *args):
        loaded.append(Path(path).name)
        return load_dataset(path, *args)

    monkeypatch.setattr(corpus, "load_dataset", counting)
    assert run_cli("run", "--config", str(workdir / "run.json"), "--model", model, "--trace", str(tmp_path / "t.jsonl")) == 0
    assert loaded.count("train.jsonl") == parses
    assert loaded.count("test.jsonl") == 1


def test_run_settings_default_to_run_settings(workdir, tmp_path):
    # No knob sections and no cache directory: every setting is the
    # RunSettings default, and the run goes without a cache.
    cfg = _absolute_config(workdir, tmp_path)
    del cfg["paths"]["cachedir"]
    assert _run_config(tmp_path, {"paths": cfg["paths"]}) == 0
    header = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
    assert header["provenance"]["settings"] == pipeline.RunSettings().__dict__


@pytest.mark.parametrize(
    "section, name, value",
    [
        ("toolrag", "top_k", -2),
        ("toolrag", "scorer", "bm25"),
        ("weaver", "k", -1),
        ("weaver", "k", 5),
        ("exspec", "n", 1),
        ("exspec", "draft_len", 0),
        ("run", "model", "gpt"),
        ("run", "max_tokens", -1),
    ],
)
def test_run_knob_outside_its_allowed_values_fails_cleanly(workdir, tmp_path, capsys, section, name, value):
    cfg = _absolute_config(workdir, tmp_path)
    cfg[section] = dict(cfg[section], **{name: value})
    message = _assert_single_error(_run_config(tmp_path, cfg), capsys)
    assert str(tmp_path / "run.json") in message and f"{section}.{name}" in message
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("section, name, value", [("exspec", "extract", "fewshot"), ("run", "jobs", 1)], ids=["exspec-extract", "run-jobs"])
def test_run_json_setting_a_removed_knob_fails_cleanly(workdir, tmp_path, capsys, section, name, value):
    # A knob run.json no longer takes is refused, not silently ignored.
    cfg = _absolute_config(workdir, tmp_path)
    cfg[section] = dict(cfg[section], **{name: value})
    message = _assert_single_error(_run_config(tmp_path, cfg), capsys)
    assert str(tmp_path / "run.json") in message and f"{section}.{name}" in message and "delete it" in message
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--top-k", "-2"), ("--scorer", "bm25"), ("--k", "5"), ("--n", "1"), ("--draft-len", "0"), ("--model", "gpt")],
)
def test_run_flag_outside_its_allowed_values_fails_cleanly(workdir, tmp_path, capsys, flag, value):
    trace = tmp_path / "t.jsonl"
    rc = run_cli("run", "--config", str(workdir / "run.json"), flag, value, "--trace", str(trace))
    assert f"flag {flag}" in _assert_single_error(rc, capsys)
    assert not trace.exists()


def _emitted(workdir, tmp_path, *flags) -> tuple[list[dict], dict[str, dict]]:
    """The trace records of a `run --emit`, and its documents by query id."""
    trace, emit = tmp_path / "t.jsonl", tmp_path / "queries"
    assert run_cli("run", "--config", str(workdir / "run.json"), *flags, "--trace", str(trace), "--emit", str(emit)) == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
    return records, {path.stem: json.loads(path.read_text()) for path in emit.iterdir()}


@pytest.mark.parametrize("model", ["scripted", "markov"])
def test_run_emit_documents_agree_with_the_trace(workdir, tmp_path, model):
    records, docs = _emitted(workdir, tmp_path, "--model", model)
    plain = tmp_path / "plain.jsonl"
    assert run_cli("run", "--config", str(workdir / "run.json"), "--model", model, "--trace", str(plain)) == 0
    assert plain.read_bytes() == (tmp_path / "t.jsonl").read_bytes()
    assert sorted(docs) == [record["query_id"] for record in records]
    for record in records:
        doc = docs[record["query_id"]]
        assert doc["query_id"] == record["query_id"]
        prompts = doc["prompts"]
        assert prompts["planner"]["total_tokens"] == record["planner"]["weaver_total"]
        assert prompts["baseline"]["total_tokens"] == record["planner"]["baseline_total"]
        assert prompts["arbiter"]["total_tokens"] == record["arbiter"]["weaver_total"] == record["arbiter"]["baseline_total"]
        for prompt in prompts.values():
            assert sum(len(seg["tokens"]) for seg in prompt["segments"]) == prompt["total_tokens"]
            assert prompt["cacheable_tokens"] + prompt["uncacheable_tokens"] == prompt["total_tokens"]
        assert prompts["planner"]["cacheable_tokens"] > 0  # the static prefix is served from the cache
        for role in ("planner", "arbiter"):
            decode = doc["decodes"][role]
            assert decode["stats"] == record[role]["decode"]
            assert len(decode["output_tokens"]) == record[role]["output_tokens"]
            assert decode["matches_autoregressive"] is True


def test_emitted_static_tokens_equal_the_traces_weaver_static(workdir, tmp_path, weaver):
    records, docs = _emitted(workdir, tmp_path)
    head = len(weaver.static_planner_prefix())
    for record in records:
        prompts = docs[record["query_id"]]["prompts"]
        planner = prompts["planner"]
        assert sum(len(seg["tokens"]) for seg in planner["segments"][:2]) == head  # system text, tool descriptions
        assert planner["static_tokens"] == record["planner"]["weaver_static"] == min(planner["cacheable_tokens"], head)
        assert prompts["arbiter"]["static_tokens"] == record["arbiter"]["weaver_static"]
        assert record["planner"]["weaver_static"] > 0 and record["arbiter"]["weaver_static"] > 0


def test_decode_stats_use_the_extraction_region(workdir, tmp_path):
    """Each emitted decode drafted from the table of its prompt's few-shot region."""
    _, docs = _emitted(workdir, tmp_path)
    for doc in docs.values():
        for role in ("planner", "arbiter"):
            segments = [(seg["kind"], seg["tokens"]) for seg in doc["prompts"][role]["segments"]]
            lut = exspec.build_lut(region_tokens(segments), exspec.DEFAULT_N)
            assert doc["decodes"][role]["stats"]["lut_size"] == len(lut)


def _refused_emit(config, tmp_path, capsys, *flags) -> str:
    """The one error line of a refused `run --emit`, which writes no trace and no document."""
    trace, emit = tmp_path / "t.jsonl", tmp_path / "queries"
    rc = run_cli("run", "--config", str(config), *flags, "--trace", str(trace), "--emit", str(emit))
    error = _assert_single_error(rc, capsys)
    assert not trace.exists() and not emit.exists()
    return error


def test_run_emit_refuses_a_train_file_the_plan_was_not_built_from(workdir, tmp_path, capsys):
    lines = (workdir / "train.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "train.jsonl").write_text("".join(lines[1:]))  # still a valid dataset
    cfg = _absolute_config(workdir, tmp_path, train=str(tmp_path / "train.jsonl"))
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert "build-plan" in _refused_emit(tmp_path / "run.json", tmp_path, capsys)


@pytest.mark.parametrize("cache", ["missing", "empty"])
def test_run_emit_with_unusable_cache_fails_cleanly(workdir, tmp_path, capsys, cache):
    (tmp_path / "empty").mkdir()
    assert "manifest" in _refused_emit(workdir / "run.json", tmp_path, capsys, "--cache", str(tmp_path / cache))


def test_run_emit_into_a_file_fails_cleanly(workdir, tmp_path, capsys):
    (tmp_path / "queries").write_text("")
    trace = tmp_path / "t.jsonl"
    rc = run_cli("run", "--config", str(workdir / "run.json"), "--trace", str(trace), "--emit", str(tmp_path / "queries"))
    assert "--emit" in _assert_single_error(rc, capsys)
    assert not trace.exists()


@pytest.mark.parametrize(
    "role, field, value",
    [
        ("planner", None, 5),
        ("arbiter", None, [1]),
        ("planner", "decode", 5),
        ("arbiter", "output_tokens", [1]),
        ("planner", "decode", {"rounds": [1], "fallbacks": 0, "draft_len": 4}),
        ("tool_count", None, "3"),
        ("planner", "weaver_total", 3790.5),
        ("arbiter", "output_tokens", True),
        ("planner", "decode", {"rounds": 1.5, "fallbacks": 0, "draft_len": 4}),
    ],
)
def test_trace_record_of_wrong_shape_fails_cleanly(tmp_path, capsys, role, field, value):
    doc = simulator.calibration_trace()[0].to_dict()
    if field is None:
        doc[role] = value
    else:
        doc[role][field] = value
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(doc) + "\n")
    rc = run_cli("simulate", "--trace", str(trace), "--out", str(tmp_path / "r.json"))
    _assert_single_error(rc, capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("role", ["planner", "arbiter"])
@pytest.mark.parametrize("excess", [None, 1])
def test_trace_without_or_beyond_its_static_head_fails_cleanly(tmp_path, capsys, role, excess):
    # A trace of the earlier format, without `weaver_static`, or one claiming
    # more query-independent tokens than were loaded.
    doc = simulator.calibration_trace()[0].to_dict()
    if excess is None:
        del doc[role]["weaver_static"]
    else:
        doc[role]["weaver_static"] = doc[role]["weaver_total"] - doc[role]["weaver_uncacheable"] + excess
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(doc) + "\n")
    rc = run_cli("simulate", "--trace", str(trace), "--out", str(tmp_path / "r.json"))
    message = _assert_single_error(rc, capsys)
    assert role in message and "weaver_static" in message
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--tool-seconds", "--toolrag-seconds"])
@pytest.mark.parametrize("value", ["-0.5", "nan"])
def test_simulate_refuses_a_negative_stage(tmp_path, capsys, flag, value):
    rc = run_cli("simulate", "--trace", str(_calibration_trace_file(tmp_path)), flag, value, "--out", str(tmp_path / "r.json"))
    assert "non-negative" in _assert_single_error(rc, capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, output", [("build-plan", "plan.json"), ("precompute-cache", "cache")])
def test_offline_command_without_vocabulary_fails_cleanly(workdir, tmp_path, capsys, command, output):
    # Without the vocabulary the keys would use ids no online command produces.
    if command == "build-plan":
        argv = [
            "build-plan",
            "--dataset", str(workdir / "train.jsonl"),
            "--registry", str(workdir / "registry.json"),
            "--examples", str(workdir / "examples.jsonl"),
            "--out", str(tmp_path / output),
        ]
    else:
        argv = [
            "precompute-cache",
            "--plan", str(workdir / "plan.json"),
            "--registry", str(workdir / "registry.json"),
            "--geometry", "desk",
            "--out", str(tmp_path / output),
        ]
    assert "vocabulary" in _assert_single_error(run_cli(*argv), capsys)
    assert not (tmp_path / output).exists()


def test_cache_dir_env_variable(workdir, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("AGENTACCEL_CACHE_DIR", str(cache))
    assert (
        run_cli(
            "precompute-cache",
            "--plan", str(workdir / "plan.json"),
            "--registry", str(workdir / "registry.json"),
            "--vocab", str(workdir / "vocab.json"),
            "--geometry", "desk",
        )
        == 0
    )
    assert (cache / "manifest.json").exists()


def test_simulate_accepts_measured_and_file_tax(workdir, tmp_path):
    trace = workdir / "trace.jsonl"
    if not trace.exists():
        assert run_cli("run", "--config", str(workdir / "run.json")) == 0
    custom = tmp_path / "tax.json"
    custom.write_text("[[1, 1.0], [2, 1.86], [5, 2.0]]")
    for tax in ("measured", str(custom)):
        out = tmp_path / f"rep_{'m' if tax == 'measured' else 'f'}.json"
        assert run_cli("simulate", "--trace", str(trace), "--tax", tax, "--out", str(out)) == 0
    rc = run_cli("simulate", "--trace", str(trace), "--tax", "bogus", "--out", str(tmp_path / "x.json"))
    assert rc != 0


def _calibration_trace_file(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(simulator.calibration_trace()[0].to_dict()) + "\n")
    return trace


_GEOMETRY = {"name": "g", "layers": 2, "kv_heads": 1, "head_dim": 2, "bytes_per_element": 2, "params_bytes": 64}
_DEVICE = {"compute_tops": 1.0, "mem_bw": 1e9, "ssd_bw": 1e9}


@pytest.mark.parametrize(
    "command, flag, doc",
    [
        pytest.param("simulate", "--device", [1], id="device_not_an_object"),
        pytest.param("simulate", "--device", dict(_DEVICE, compute_tops="x"), id="device_rate_a_string"),
        pytest.param("simulate", "--geometry", [1], id="geometry_not_an_object"),
        pytest.param("precompute-cache", "--geometry", [1], id="precompute_geometry_not_an_object"),
        pytest.param("simulate", "--geometry", dict(_GEOMETRY, layers="2"), id="geometry_layers_a_string"),
        pytest.param("simulate", "--geometry", dict(_GEOMETRY, layers=32.5), id="geometry_layers_a_float"),
        pytest.param("simulate", "--geometry", dict(_GEOMETRY, kv_heads=True), id="geometry_kv_heads_a_bool"),
        pytest.param("precompute-cache", "--geometry", dict(_GEOMETRY, bytes_per_element=2.0), id="geometry_width_a_float"),
        pytest.param("simulate", "--device", dict(_DEVICE, compute_tops=True), id="device_rate_a_bool"),
        pytest.param("simulate", "--device", dict(_DEVICE, name=7), id="device_name_not_a_string"),
        pytest.param("simulate", "--tax", [5], id="tax_point_not_a_pair"),
        pytest.param("simulate", "--tax", {"a": 1}, id="tax_an_object"),
        pytest.param("simulate", "--tax", {"11": 0}, id="tax_an_object_of_pair_strings"),
        pytest.param("simulate", "--tax", ["11", "25"], id="tax_pairs_as_strings"),
        pytest.param("simulate", "--tax", [[1, 1.0], [2.5, 1.86]], id="tax_width_not_an_integer"),
    ],
)
def test_preset_or_file_of_wrong_shape_fails_cleanly(workdir, tmp_path, capsys, command, flag, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--trace", str(_calibration_trace_file(tmp_path)), "--out", str(out)]
    else:
        argv = [
            "precompute-cache",
            "--plan", str(workdir / "plan.json"),
            "--registry", str(workdir / "registry.json"),
            "--vocab", str(workdir / "vocab.json"),
            "--out", str(out),
        ]
    assert "must hold" in _assert_single_error(run_cli(*argv, flag, str(spec)), capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "vocab",
    [
        pytest.param({"a": "x"}, id="id_a_string"),
        pytest.param({"a": True}, id="id_a_bool"),
        pytest.param(["a", "b"], id="a_list"),
    ],
)
def test_vocabulary_of_wrong_shape_fails_cleanly(workdir, tmp_path, capsys, vocab):
    (tmp_path / "vocab.json").write_text(json.dumps(vocab))
    argv = ["--plan", str(workdir / "plan.json"), "--registry", str(workdir / "registry.json"), "--vocab", str(tmp_path / "vocab.json")]
    message = _assert_single_error(run_cli("precompute-cache", *argv, "--out", str(tmp_path / "cache")), capsys)
    assert str(tmp_path / "vocab.json") in message
    assert not (tmp_path / "cache").exists()


def _truncated(path: Path, tmp_path: Path) -> Path:
    """A copy of `path` under tmp_path cut off after its first 40 bytes."""
    (tmp_path / path.name).write_bytes(path.read_bytes()[:40])
    return tmp_path / path.name


@pytest.mark.parametrize("name", ["plan.json", "trace.jsonl", "vocab.json", "manifest.json"])
def test_json_syntax_error_names_the_file(workdir, tmp_path, capsys, name):
    config = ["run", "--config", str(workdir / "run.json"), "--trace", str(tmp_path / "t.jsonl")]
    if name == "plan.json":
        rc = _run_config(tmp_path, _absolute_config(workdir, tmp_path, plan=str(_truncated(workdir / name, tmp_path))))
    elif name == "trace.jsonl":
        trace = tmp_path / name
        trace.write_text(json.dumps(simulator.calibration_trace()[0].to_dict())[:40] + "\n")
        rc = run_cli("simulate", "--trace", str(trace), "--out", str(tmp_path / "r.json"))
    elif name == "vocab.json":
        rc = _run_config(tmp_path, _absolute_config(workdir, tmp_path, vocab=str(_truncated(workdir / name, tmp_path))))
    else:
        (tmp_path / "cache").mkdir()
        _truncated(workdir / "cache" / name, tmp_path / "cache")
        rc = run_cli(*config, "--cache", str(tmp_path / "cache"))
    message = _assert_single_error(rc, capsys)
    assert name in message and "not valid JSON" in message


@pytest.mark.parametrize("recorded", [True, False])
def test_precompute_cache_refuses_a_vocabulary_other_than_the_plans(workdir, tmp_path, capsys, recorded):
    plan = workdir / "plan.json"
    if not recorded:
        # A plan that records no vocabulary is bound to none, and refused.
        doc = json.loads(plan.read_text())
        del doc["provenance"]["vocab_sha256"]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
    argv = ["--plan", str(plan), "--registry", str(workdir / "registry.json"), "--vocab", str(_other_vocab(workdir, tmp_path))]
    rc = run_cli("precompute-cache", *argv, "--geometry", "desk", "--out", str(tmp_path / "cache"))
    message = _assert_single_error(rc, capsys)
    assert str(plan) in message and "build-plan" in message
    assert ("vocabulary" if recorded else "vocab_sha256") in message
    assert not (tmp_path / "cache").exists()


def _report_doc() -> dict:
    config = simulator.SimConfig(device=simulator.device_presets()["m4-pro"], geometry=simulator.geometry_presets()["7b-class"])
    return simulator.simulate_pipeline(simulator.calibration_trace(), config).to_dict()


def _without_stage(doc):
    del doc["cells"]["pw"]["seconds"]["ssd_load"]
    return doc


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda doc: {"cells": {}}, id="no_cells"),
        pytest.param(lambda doc: [], id="not_an_object"),
        pytest.param(_without_stage, id="stage_missing"),
        pytest.param(lambda doc: dict(doc, speedups={"pw": "1.2"}), id="speedups_incomplete"),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_of_wrong_shape_fails_cleanly(tmp_path, capsys, corrupt, fmt):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(corrupt(_report_doc())))
    out = tmp_path / "out"
    _assert_single_error(run_cli("report", "--report", str(report), "--format", fmt, "--out", str(out)), capsys)
    assert not out.exists()


def _set_first(key, value, within=None):
    """Corrupts the first record of a JSONL file (or of a registry's `within` list)."""

    def corrupt(doc):
        records = doc[within] if within else doc
        records[0] = value if key is None else dict(records[0], **{key: value})
        return doc

    return corrupt


@pytest.mark.parametrize(
    "name, corrupt, field",
    [
        pytest.param("train.jsonl", _set_first("tools", 5), "tools", id="dataset_tools_not_a_list"),
        pytest.param("train.jsonl", _set_first("query", 5), "query", id="dataset_query_not_a_string"),
        pytest.param("train.jsonl", _set_first("plan", {"nodes": [], "edges": [[0]]}), "plan", id="dataset_plan_edge_not_a_pair"),
        pytest.param("registry.json", _set_first(None, 1, within="tools"), "id", id="registry_tool_not_an_object"),
        pytest.param("registry.json", _set_first("description", 5, within="tools"), "description", id="registry_description_not_a_string"),
        pytest.param("examples.jsonl", _set_first("example_text", 5), "example_text", id="example_text_not_a_string"),
        pytest.param("examples.jsonl", _set_first(None, [1]), "example_text", id="example_line_not_an_object"),
    ],
)
def test_corpus_field_of_wrong_type_fails_cleanly(workdir, tmp_path, capsys, name, corrupt, field):
    inputs = {}
    for part in ("train.jsonl", "registry.json", "examples.jsonl"):
        text = (workdir / part).read_text()
        if part == name:
            if part.endswith(".jsonl"):
                records = corrupt([json.loads(line) for line in text.splitlines() if line.strip()])
                text = "".join(json.dumps(r) + "\n" for r in records)
            else:
                text = json.dumps(corrupt(json.loads(text)))
        inputs[part] = tmp_path / part
        inputs[part].write_text(text)
    argv = [
        "build-plan",
        "--dataset", str(inputs["train.jsonl"]),
        "--registry", str(inputs["registry.json"]),
        "--examples", str(inputs["examples.jsonl"]),
        "--vocab", str(workdir / "vocab.json"),
        "--out", str(tmp_path / "plan.json"),
    ]
    message = _assert_single_error(run_cli(*argv), capsys)
    assert "record 0" in message and f"'{field}'" in message
    assert not (tmp_path / "plan.json").exists()


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "agentaccel.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "build-plan" in proc.stdout

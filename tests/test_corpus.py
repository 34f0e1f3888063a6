import json
import random

import pytest

from agentaccel import corpus, fixtures
from agentaccel.corpus import LoadError, PlanDAG, build_coactivation
from agentaccel.tokenizer import Tokenizer


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_registry_loads_sixteen_tools(bundle):
    assert len(bundle.registry) == 16
    assert len(bundle.registry.themes) == 4
    for tool in bundle.registry.tools.values():
        assert tool.description_tokens and tool.guideline_tokens


def test_plan_records_render_as_their_loaded_plans(tmp_path, fixture_paths, monkeypatch):
    # Example texts are rendered from plan records, the scripted planner's
    # output and the draft table from loaded plans; drafting from the few-shot
    # region needs both in one format.
    plans = [rec["plan"] for split in ("train", "test") for rec in fixtures.dataset_records(split, fixtures.DEFAULT_SEED)]
    render = fixtures.render_plan_dict
    dataset_plans = len(plans)

    def recording(plan):
        plans.append(plan)
        return render(plan)

    monkeypatch.setattr(fixtures, "render_plan_dict", recording)
    examples = fixtures.example_records()
    assert len(plans) == dataset_plans + len(examples)
    for example, plan in zip(examples, plans[dataset_plans:]):
        assert example["example_text"].endswith(" . plan : " + render(plan))
    path = tmp_path / "plans.jsonl"
    _write_jsonl(path, [{"query": "q", "tools": sorted({n["call"] for n in p["nodes"]}), "plan": p} for p in plans])
    tok = Tokenizer()
    loaded = corpus.load_dataset(path, corpus.load_registry(fixture_paths["registry"], tok), tok)
    assert [render(plan) for plan in plans] == [corpus.render_plan(sample.gt_plan) for sample in loaded]


def test_dataset_referential_integrity_error(tmp_path, fixture_paths):
    tok = Tokenizer()
    registry = corpus.load_registry(fixture_paths["registry"], tok)
    bad = tmp_path / "bad.jsonl"
    _write_jsonl(bad, [{"query": "x", "tools": ["foo"], "plan": {"nodes": [], "edges": []}}])
    with pytest.raises(LoadError) as err:
        corpus.load_dataset(bad, registry, tok)
    assert "foo" in str(err.value)
    assert "record 0" in str(err.value)
    assert "tools" in str(err.value)


def test_dataset_plan_tool_must_be_in_sample_tools(tmp_path, fixture_paths):
    tok = Tokenizer()
    registry = corpus.load_registry(fixture_paths["registry"], tok)
    bad = tmp_path / "bad.jsonl"
    _write_jsonl(
        bad,
        [
            {
                "query": "x",
                "tools": ["open_note"],
                "plan": {"nodes": [{"call": "create_note", "args": []}], "edges": []},
            }
        ],
    )
    with pytest.raises(LoadError):
        corpus.load_dataset(bad, registry, tok)


def test_empty_dataset_file(tmp_path, fixture_paths):
    tok = Tokenizer()
    registry = corpus.load_registry(fixture_paths["registry"], tok)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert corpus.load_dataset(empty, registry, tok) == []


def test_cyclic_plan_rejected(tmp_path, fixture_paths):
    tok = Tokenizer()
    registry = corpus.load_registry(fixture_paths["registry"], tok)
    bad = tmp_path / "cyclic.jsonl"
    _write_jsonl(
        bad,
        [
            {
                "query": "x",
                "tools": ["open_note", "search_notes"],
                "plan": {
                    "nodes": [
                        {"call": "open_note", "args": []},
                        {"call": "search_notes", "args": []},
                    ],
                    "edges": [[0, 1], [1, 0]],
                },
            }
        ],
    )
    with pytest.raises(LoadError) as err:
        corpus.load_dataset(bad, registry, tok)
    assert "cycle" in str(err.value)


def test_example_db_validation_errors(tmp_path, fixture_paths, bundle):
    tok = Tokenizer()
    registry = corpus.load_registry(fixture_paths["registry"], tok)

    unknown = tmp_path / "unknown.jsonl"
    _write_jsonl(unknown, [{"id": "e1", "example_text": "x", "tools": ["nope"]}])
    with pytest.raises(LoadError):
        corpus.load_example_db(unknown, registry, tok, bundle.embedder)

    empty_tools = tmp_path / "empty.jsonl"
    _write_jsonl(empty_tools, [{"id": "e1", "example_text": "x", "tools": []}])
    with pytest.raises(LoadError):
        corpus.load_example_db(empty_tools, registry, tok, bundle.embedder)

    dup = tmp_path / "dup.jsonl"
    _write_jsonl(
        dup,
        [
            {"id": "e1", "example_text": "x", "tools": ["open_note"]},
            {"id": "e1", "example_text": "y", "tools": ["open_note"]},
        ],
    )
    with pytest.raises(LoadError):
        corpus.load_example_db(dup, registry, tok, bundle.embedder)


def test_single_sample_pair_counts():
    tok = Tokenizer()
    registry = corpus.ToolRegistry(
        ["t"],
        [
            corpus.Tool("a", "a", "t", (1,), (2,)),
            corpus.Tool("b", "b", "t", (1,), (2,)),
            corpus.Tool("c", "c", "t", (1,), (2,)),
        ],
    )
    sample = corpus.QuerySample("q", tuple(tok.tokenize("q")), frozenset({"a", "b"}), PlanDAG((), ()))
    m = build_coactivation([sample], registry)
    assert m.count("a", "b") == 1
    assert m.count("a", "a") == 1
    assert m.count("a", "c") == 0


def test_disjoint_single_tool_samples_have_zero_offdiagonal():
    registry = corpus.ToolRegistry(
        ["t"],
        [corpus.Tool(t, t, "t", (1,), (2,)) for t in "abcd"],
    )
    samples = [
        corpus.QuerySample(t, (ord(t),), frozenset({t}), PlanDAG((), ())) for t in "abcd"
    ]
    m = build_coactivation(samples, registry)
    for x in "abcd":
        for y in "abcd":
            if x != y:
                assert m.count(x, y) == 0


def test_coactivation_matches_naive_double_loop(bundle, coactivation):
    # Oracle: direct pairwise recount over the samples.
    tools = bundle.registry.tool_ids()
    for x in tools:
        for y in tools:
            expected = sum(1 for s in bundle.train if x in s.gt_tools and y in s.gt_tools)
            assert coactivation.count(x, y) == expected


def test_coactivation_symmetry_and_diagonal(coactivation):
    ids = coactivation.tool_ids
    for x in ids:
        assert coactivation.count(x, x) == coactivation.marginal(x)
        for y in ids:
            assert coactivation.count(x, y) == coactivation.count(y, x)


def test_fixture_conditionals_match_engineered_ratios(bundle, coactivation):
    # Verified by independent counting over the raw samples.
    zoom = [s for s in bundle.train if "get_zoom_link" in s.gt_tools]
    with_email = sum(1 for s in zoom if "get_email_address" in s.gt_tools)
    with_phone = sum(1 for s in zoom if "get_phone_number" in s.gt_tools)
    assert with_email / len(zoom) == pytest.approx(0.91)
    assert with_phone / len(zoom) == pytest.approx(0.06)
    assert coactivation.conditional("get_email_address", "get_zoom_link") == pytest.approx(0.91, abs=0.005)
    assert coactivation.conditional("get_phone_number", "get_zoom_link") == pytest.approx(0.06, abs=0.005)


def test_conditionals_bounded_and_zero_marginal_defined(coactivation):
    registry_ids = coactivation.tool_ids
    for x in registry_ids:
        for y in registry_ids:
            assert 0.0 <= coactivation.conditional(y, x) <= 1.0
        if coactivation.marginal(x) > 0:
            assert coactivation.conditional(x, x) == 1.0
    # A tool never activated has defined-as-zero conditionals.
    m = build_coactivation(
        [corpus.QuerySample("q", (1,), frozenset({"a"}), PlanDAG((), ()))],
        corpus.ToolRegistry(["t"], [corpus.Tool(t, t, "t", (1,), (2,)) for t in "ab"]),
    )
    assert m.conditional("a", "b") == 0.0


def test_random_coactivation_against_oracle():
    rng = random.Random(17)
    tools = [f"t{i}" for i in range(8)]
    registry = corpus.ToolRegistry(["x"], [corpus.Tool(t, t, "x", (1,), (2,)) for t in tools])
    samples = []
    for i in range(300):
        chosen = frozenset(rng.sample(tools, rng.randint(1, 4)))
        samples.append(corpus.QuerySample(str(i), (i + 1,), chosen, PlanDAG((), ())))
    m = build_coactivation(samples, registry)
    for x in tools:
        for y in tools:
            expected = sum(1 for s in samples if x in s.gt_tools and y in s.gt_tools)
            assert m.count(x, y) == expected


class TestPlanDag:
    def test_fixture_plans_validate(self, bundle):
        for sample in bundle.train + bundle.test:
            sample.gt_plan.validate()
            assert all(node.call in sample.gt_tools for node in sample.gt_plan.nodes)

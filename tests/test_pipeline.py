import dataclasses
import hashlib
import json

import pytest

from agentaccel import corpus, exspec, fixtures, pipeline, toolrag
from agentaccel.tokenizer import EOS_ID


def _held_ids(table: exspec.NGramLUT) -> set[int]:
    return {tok for key, (succ, _) in table.table.items() for tok in (*key, succ)} | {table.filler}


def test_plan_draft_table_counts_the_train_renders_between_eos(bundle):
    renders = [bundle.tokenizer.tokenize(corpus.render_plan(s.gt_plan)) for s in bundle.train]
    stream = [tok for render in renders for tok in (EOS_ID, *render)][1:]
    table = pipeline.plan_draft_table(bundle)
    # The fixture vocabulary defines every word of the corpus: nothing is dropped.
    assert table == exspec.build_lut(stream, exspec.DEFAULT_N)
    assert table.n == exspec.DEFAULT_N
    assert _held_ids(table) <= bundle.tokenizer.defined_ids | {EOS_ID}


def test_plan_draft_table_holds_no_id_the_vocabulary_lacks(tmp_path):
    paths = fixtures.write_fixtures(tmp_path)
    vocab = json.loads(paths["vocab"].read_text())
    dropped = ("end", "of", "get_email_address")
    (tmp_path / "partial.json").write_text(json.dumps({w: i for w, i in vocab.items() if w not in dropped}))
    bundle = pipeline.load_bundle(paths["registry"], paths["train"], None, paths["examples"], tmp_path / "partial.json")
    table = pipeline.plan_draft_table(bundle)
    undefined = {bundle.tokenizer.tokenize(word)[0] for word in dropped}
    assert all(word in vocab for word in dropped)
    assert not undefined & bundle.tokenizer.defined_ids
    assert len(table) > 0
    assert _held_ids(table) <= bundle.tokenizer.defined_ids | {EOS_ID}


def test_run_queries_drafts_the_planner_from_the_plan_table(bundle, plan):
    settings = pipeline.RunSettings()
    without = pipeline.run_queries(bundle, plan, None, settings)
    carrying = dataclasses.replace(plan, draft_table=pipeline.plan_draft_table(bundle))
    with_table = pipeline.run_queries(bundle, carrying, None, settings)
    for before, after in zip(without, with_table):
        assert after.planner.output_tokens == before.planner.output_tokens
        assert after.arbiter == before.arbiter  # the arbiter does not use the table
        assert before.planner.decode["backup_rounds"] == 0
    rounds = [sum(r.planner.decode["rounds"] for r in records) for records in (without, with_table)]
    assert rounds[1] < rounds[0]
    assert sum(r.planner.decode["backup_rounds"] for r in with_table) > 0


# The fixture run's pin per model: the sha256 of its trace records joined as
# `json.dumps(record.to_dict(), sort_keys=True)` lines, then the planner's
# `backup_rounds` and `grammar_drafts` totals.  A change that alters any
# record updates it and says why.
_FIXTURE_RUN = {
    "scripted": ("4351cb652d699bda8da67f5ad963a39c455ac6b9b4a1e09607d831a96044d393", 180, 249),
    "markov": ("45dfaf4b87f7d0cd8a2d95a953243c1a7ad145034fdcef6c8931a968bee46ece", 87, 0),
}


@pytest.mark.parametrize("model", pipeline.MODELS)
def test_the_fixture_run_is_pinned(bundle, plan, populated_store, model):
    carrying = dataclasses.replace(plan, draft_table=pipeline.plan_draft_table(bundle))
    records = pipeline.run_queries(bundle, carrying, populated_store, pipeline.RunSettings(model=model))
    text = "\n".join(json.dumps(record.to_dict(), sort_keys=True) for record in records)
    totals = [sum(r.planner.decode[key] for r in records) for key in ("backup_rounds", "grammar_drafts")]
    assert (hashlib.sha256(text.encode()).hexdigest(), *totals) == _FIXTURE_RUN[model]


@pytest.mark.parametrize("model", pipeline.MODELS)
def test_the_planner_grammar_awaits_the_retrieved_tools(bundle, plan, monkeypatch, model):
    grammars = []
    decode = exspec.decode

    def recording(*args):
        grammars.append(args[6])
        return decode(*args)

    monkeypatch.setattr(exspec, "decode", recording)
    settings = pipeline.RunSettings(model=model)
    records = pipeline.run_queries(bundle, plan, None, settings)
    rag = bundle.make_rag(settings.scorer)
    for sample, planner, arbiter in zip(bundle.test, grammars[::2], grammars[1::2]):
        retrieved = rag.retrieve_tools(sample.query_tokens, settings.tau)
        assert set(planner.tools) == {bundle.tokenizer.id_of(tool) for tool in retrieved}
        assert planner.end == bundle.tokenizer.id_of("end")
        assert arbiter is None
    drafted = sum(r.planner.decode["grammar_drafts"] for r in records)
    # The Markov planner continues the query before any plan, so the grammar never drafts for it.
    assert (drafted > 0) == (model == "scripted")


@pytest.mark.parametrize("model", pipeline.MODELS)
def test_run_queries_retrieves_examples_once_per_query(bundle, plan, populated_store, monkeypatch, model):
    # The planner's top k and the baseline's top top_k examples come from one ranking.
    calls = []
    retrieve_examples = toolrag.ToolRag.retrieve_examples

    def counting(self, query_tokens, selected, k):
        calls.append((tuple(query_tokens), k))
        return retrieve_examples(self, query_tokens, selected, k)

    monkeypatch.setattr(toolrag.ToolRag, "retrieve_examples", counting)
    settings = pipeline.RunSettings(model=model, k=2, top_k=3)
    pipeline.run_queries(bundle, plan, populated_store, settings)
    assert calls == [(tuple(sample.query_tokens), 3) for sample in bundle.test]


def test_run_queries_lays_out_the_ranked_examples(bundle, plan):
    emitted = []
    pipeline.run_queries(bundle, plan, None, pipeline.RunSettings(k=2, top_k=3), emit=emitted.append)
    rag = bundle.make_rag("oracle")
    for sample, doc in zip(bundle.test, emitted):
        ranked = rag.retrieve_examples(sample.query_tokens, rag.retrieve_tools(sample.query_tokens), 3)
        planner = dict((s["kind"], s["tokens"]) for s in doc["prompts"]["planner"]["segments"])
        baseline = dict((s["kind"], s["tokens"]) for s in doc["prompts"]["baseline"]["segments"])
        assert doc["prompts"]["planner"]["stats"]["rag_example_ids"] == [ex.id for ex in ranked[:2]]
        assert planner["rag_examples"] == [t for ex in ranked[:2] for t in ex.example_tokens]
        assert baseline["rag_examples"] == [t for ex in ranked for t in ex.example_tokens]


def test_run_json_knobs_are_the_run_settings_defaults():
    # Every RunSettings field is read from exactly one run.json section.
    sections = fixtures.default_run_config()
    knobs = [name for names in pipeline.RUN_SECTIONS.values() for name in names]
    assert sorted(knobs) == sorted(field.name for field in dataclasses.fields(pipeline.RunSettings))
    picked = {name: sections[section][name] for section, names in pipeline.RUN_SECTIONS.items() for name in names}
    assert pipeline.RunSettings(**picked) == pipeline.RunSettings()


@pytest.mark.parametrize("model", pipeline.MODELS)
def test_truncated_decodes_of_a_fixture_run(bundle, plan, model):
    # The scripted model ends every decode with EOS; the Markov chain never
    # learned the arbiter's verdict, so each arbiter decode runs to max_tokens.
    settings = pipeline.RunSettings(model=model)
    records = pipeline.run_queries(bundle, plan, None, settings)
    for record in records:
        for role in (record.planner, record.arbiter):
            assert role.decode["truncated"] == (role.output_tokens == settings.max_tokens)
    truncated = sum(r.arbiter.decode["truncated"] for r in records)
    assert truncated == (len(records) if model == "markov" else 0)
    if model == "scripted":
        assert sum(r.planner.decode["truncated"] for r in records) == 0

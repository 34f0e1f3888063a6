import dataclasses
import json

from agentaccel import corpus, exspec, fixtures, pipeline
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

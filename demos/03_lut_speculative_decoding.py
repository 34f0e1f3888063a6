#!/usr/bin/env python3
# Speculative decode from a lookup table: build an n-gram table over the
# prompt's few-shot region, draft whole groups of tokens for free, and verify
# them in one pass -- falling back to plain autoregressive steps whenever the
# table has nothing to say.  Where the prompt's table misses, the planner can
# also draft from a table counted offline over the train split's plans, which
# `build-plan` ships in plan.json, and from a grammar of the plan format,
# which drafts its step numbers, `.` and `end`.  Output is token-identical to
# greedy decoding by design.

import tempfile

from agentaccel import PlanGrammar, build_coactivation, build_lut, build_plan, decode, fixtures, pipeline
from agentaccel.corpus import render_plan
from agentaccel.lm import ScriptedModel, greedy_decode
from agentaccel.simulator import MEASURED_TAX, decode_seconds
from agentaccel.weaver import Weaver

with tempfile.TemporaryDirectory(prefix="agentaccel-demo-") as workdir:
    paths = fixtures.write_fixtures(workdir)
    bundle = pipeline.load_bundle(
        paths["registry"], paths["train"], paths["test"], paths["examples"], paths["vocab"]
    )
matrix = build_coactivation(bundle.train, bundle.registry)
plan = build_plan(matrix, bundle.registry, bundle.examples, bundle.train,
                  bundle.top_train_examples(), budget=15, rank=8, seed=fixtures.DEFAULT_SEED)
rag = bundle.make_rag("oracle")
weaver = Weaver(bundle.registry, bundle.tokenizer, plan)


def planner_prompt(s):
    """The query's planner prompt with its retrieved tools and top-1 retrieved example."""
    retrieved = rag.retrieve_tools(s.query_tokens, 0.5)
    return weaver.planner_prompt(s.query_tokens, retrieved, rag.retrieve_examples(s.query_tokens, retrieved, 1))


sample = bundle.test[0]
prompt = planner_prompt(sample)
script = bundle.tokenizer.tokenize(render_plan(sample.gt_plan))
model = ScriptedModel(prompt.tokens, script)

region = prompt.extraction_region()
lut = build_lut(region, n=3)
print(f"query: {sample.query_text!r}")
print(f"trigram table built from {lut.source_token_count} region tokens -> {len(lut)} entries (a few KB)")

reference = greedy_decode(model, prompt.tokens, 160)
print(f"\nplain autoregressive decode: {len(reference)} tokens, {len(reference)} model steps")

for selective in (True, False):
    out, stats = decode(model, prompt.tokens, lut, n_draft=4, selective=selective, max_tokens=160)
    assert out == reference, "speculative output must match greedy decoding"
    mode = "selective " if selective else "non-selective"
    print(
        f"{mode} speculative: {stats.rounds} rounds, "
        f"{stats.drafts_accepted}/{stats.drafts_generated} drafts accepted "
        f"({stats.accuracy:.0%}), {stats.fallbacks} fallbacks, "
        f"modeled cost {decode_seconds(stats.to_dict(), 1.0, MEASURED_TAX):.1f} vs {float(len(reference)):.1f} unit steps"
    )

train_table = pipeline.plan_draft_table(bundle)
print(f"\ntrain-split plan table: {len(train_table)} entries over {train_table.source_token_count} tokens")
rounds = {"prompt table only": 0, "with the train table": 0}
for s in bundle.test:
    p = planner_prompt(s)
    m = ScriptedModel(p.tokens, bundle.tokenizer.tokenize(render_plan(s.gt_plan)))
    lut_s = build_lut(p.extraction_region(), 3)
    for label, backup in (("prompt table only", None), ("with the train table", train_table)):
        out, st = decode(m, p.tokens, lut_s, 4, True, 160, backup=backup)
        assert out == greedy_decode(m, p.tokens, 160)
        rounds[label] += st.rounds
for label, count in rounds.items():
    print(f"  {label}: {count} planner rounds over {len(bundle.test)} test queries")

# The grammar awaits the tools the query retrieved: it drafts the next step
# number after a step's `;` while one of them is uncalled, then `end`.
retrieved = rag.retrieve_tools(sample.query_tokens, 0.5)
grammar = PlanGrammar.read(bundle.tokenizer, 160).awaiting(map(bundle.tokenizer.id_of, retrieved))
print(f"\nplan grammar on the demo query (awaiting {len(grammar.tools)} retrieved tools):")
for label, g in (("without the grammar", None), ("with the grammar", grammar)):
    out, st = decode(model, prompt.tokens, lut, 4, True, 160, backup=train_table, grammar=g)
    assert out == reference
    print(f"  {label}: {st.rounds} planner rounds, {st.fallbacks} fallbacks, {st.grammar_drafts} grammar drafts")

print("\ndraft-length ablation (selective, trigram):")
for n in (2, 3, 4):
    lut_n = build_lut(region, n=n)
    gen = acc = 0
    for s in bundle.test:
        p = planner_prompt(s)
        m = ScriptedModel(p.tokens, bundle.tokenizer.tokenize(render_plan(s.gt_plan)))
        _, st = decode(m, p.tokens, build_lut(p.extraction_region(), n), 4, True, 160)
        gen += st.drafts_generated
        acc += st.drafts_accepted
    print(f"  n={n}: {acc}/{gen} drafts accepted ({acc / gen:.0%})")

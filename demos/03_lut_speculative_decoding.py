#!/usr/bin/env python3
# Speculative decode from a lookup table: build an n-gram table over the
# prompt's few-shot region, draft whole groups of tokens for free, and verify
# them in one pass -- falling back to plain autoregressive steps whenever the
# table has nothing to say.  Output is token-identical to greedy decoding by
# design.

import tempfile

from agentaccel import build_coactivation, build_lut, build_plan, decode, fixtures, pipeline
from agentaccel.corpus import render_plan
from agentaccel.lm import ScriptedModel, greedy_decode
from agentaccel.weaver import Weaver

with tempfile.TemporaryDirectory(prefix="agentaccel-demo-") as workdir:
    paths = fixtures.write_fixtures(workdir)
    bundle = pipeline.load_bundle(
        paths["registry"], paths["train"], paths["test"], paths["examples"], paths["vocab"]
    )
matrix = build_coactivation(bundle.train, bundle.registry)
plan = build_plan(matrix, bundle.registry, bundle.examples, bundle.train,
                  budget=15, rank=8, seed=fixtures.DEFAULT_SEED)
rag = bundle.make_rag("oracle")
weaver = Weaver(bundle.registry, bundle.tokenizer, plan, bundle.examples, rag)

sample = bundle.test[0]
prompt = weaver.planner_prompt(sample.query_tokens, k=1,
                               retrieved=rag.retrieve_tools(sample.query_tokens, 0.5))
script = bundle.tokenizer.tokenize(render_plan(sample.gt_plan))
model = ScriptedModel(prompt.tokens, script)

region = prompt.extraction_region("fewshot")
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
        f"modeled cost {stats.modeled_latency:.1f} vs {float(len(reference)):.1f} unit steps"
    )

print("\ndraft-length ablation (selective, trigram):")
for n in (2, 3, 4):
    lut_n = build_lut(region, n=n)
    gen = acc = 0
    for s in bundle.test:
        p = weaver.planner_prompt(s.query_tokens, k=1,
                                  retrieved=rag.retrieve_tools(s.query_tokens, 0.5))
        m = ScriptedModel(p.tokens, bundle.tokenizer.tokenize(render_plan(s.gt_plan)))
        _, st = decode(m, p.tokens, build_lut(p.extraction_region("fewshot"), n), 4, True, 160)
        gen += st.drafts_generated
        acc += st.drafts_accepted
    print(f"  n={n}: {acc}/{gen} drafts accepted ({acc / gen:.0%})")

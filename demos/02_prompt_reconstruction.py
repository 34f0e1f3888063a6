#!/usr/bin/env python3
# Prompt reconstruction: the conventional prompt order leaves almost every
# token uncacheable; the reconstructed order turns most of the prompt into
# precomputed prefixes and loads them instead of recomputing.

import tempfile
from pathlib import Path

from agentaccel import KVStore, Weaver, build_coactivation, build_plan, fixtures, pipeline
from agentaccel.simulator import geometry_presets

with tempfile.TemporaryDirectory(prefix="agentaccel-demo-") as tmp:
    workdir = Path(tmp)
    paths = fixtures.write_fixtures(workdir)
    bundle = pipeline.load_bundle(
        paths["registry"], paths["train"], paths["test"], paths["examples"], paths["vocab"]
    )
    matrix = build_coactivation(bundle.train, bundle.registry)
    plan = build_plan(matrix, bundle.registry, bundle.examples, bundle.train,
                      budget=15, rank=8, seed=fixtures.DEFAULT_SEED)

    rag = bundle.make_rag("oracle")
    weaver = Weaver(bundle.registry, bundle.tokenizer, plan, bundle.examples)

    store = KVStore(workdir / "cache")
    geometry = geometry_presets()["desk"]  # small synthetic blobs for the demo
    store.precompute(weaver.cacheable_prefixes(), geometry)
    print(f"precomputed {len(store.entries)} prefixes ({store.total_bytes / 1e6:.1f} MB at demo geometry)")

    sample = bundle.test[0]
    print(f"\nquery: {sample.query_text!r}")
    retrieved = rag.retrieve_tools(sample.query_tokens, tau=0.5)
    print(f"retrieved tools: {sorted(retrieved)}")
    examples = rag.retrieve_examples(sample.query_tokens, retrieved, 3)

    baseline = weaver.baseline_prompt(sample.query_tokens, retrieved, examples, store=store)
    woven = weaver.planner_prompt(sample.query_tokens, retrieved, examples[:1], store=store)

    print("\nconventional prompt order:")
    for kind, tokens in baseline.segments:
        print(f"  {kind:22s} {len(tokens):5d} tokens")
    print(f"  -> {baseline.cacheable_tokens} cacheable / {baseline.uncacheable_tokens} uncacheable")

    print("\nreconstructed prompt order:")
    for kind, tokens in woven.segments:
        print(f"  {kind:22s} {len(tokens):5d} tokens")
    print(f"  -> {woven.cacheable_tokens} cacheable / {woven.uncacheable_tokens} uncacheable")
    print(f"  activated clusters: {woven.stats['activated_clusters']}")

    drop = 1 - woven.uncacheable_tokens / baseline.uncacheable_tokens
    print(f"\nonline prefill work drops by {drop:.0%} for this query")

    obs = bundle.tokenizer.tokenize(pipeline.observation_text(sample.gt_plan))
    arbiter = weaver.arbiter_prompt(obs, store=store)
    frac = arbiter.cacheable_tokens / arbiter.total_tokens
    print(f"arbiter prompt: {arbiter.total_tokens} tokens, {frac:.0%} served from the cached guidelines")

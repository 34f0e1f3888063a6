import statistics

import pytest

from agentaccel import pipeline
from agentaccel.kvstore import TAG_STATIC, KVStore, common_head
from agentaccel.weaver import (
    MAX_DYNAMIC_EXAMPLES,
    PLANNER_SEGMENT_ORDER,
    SEG_ALL_TOOL_DESCRIPTIONS,
    SEG_CLUSTERED_EXAMPLES,
    SEG_USER_QUERY,
    Weaver,
)


def _planner(weaver, oracle_rag, sample, k=1, store=None):
    retrieved = oracle_rag.retrieve_tools(sample.query_tokens, 0.5)
    examples = oracle_rag.retrieve_examples(sample.query_tokens, retrieved, k)
    return weaver.planner_prompt(sample.query_tokens, retrieved, examples, store=store)


def _prompts(weaver, oracle_rag, sample, store=None):
    """The planner and baseline prompts of one query at the default run settings."""
    settings = pipeline.RunSettings()
    retrieved = oracle_rag.retrieve_tools(sample.query_tokens, settings.tau)
    examples = oracle_rag.retrieve_examples(sample.query_tokens, retrieved, max(settings.k, settings.top_k))
    return (
        weaver.planner_prompt(sample.query_tokens, retrieved, examples[: settings.k], store=store),
        weaver.baseline_prompt(sample.query_tokens, retrieved, examples[: settings.top_k]),
    )


class TestPlannerPrompt:
    def test_segment_order_is_canonical(self, weaver, oracle_rag, bundle):
        prompt = _planner(weaver, oracle_rag, bundle.test[0])
        assert tuple(kind for kind, _ in prompt.segments) == PLANNER_SEGMENT_ORDER

    def test_accounting_identity(self, weaver, oracle_rag, bundle, populated_store):
        for sample in bundle.test[:10]:
            prompt = _planner(weaver, oracle_rag, sample, store=populated_store)
            assert prompt.total_tokens == sum(len(t) for _, t in prompt.segments)
            assert prompt.cacheable_tokens + prompt.uncacheable_tokens == prompt.total_tokens
            assert prompt.cacheable_tokens == prompt.match_len

    def test_empty_store_means_everything_uncacheable(self, weaver, oracle_rag, bundle):
        prompt = _planner(weaver, oracle_rag, bundle.test[0], k=0, store=None)
        assert prompt.uncacheable_tokens == prompt.total_tokens

    def test_determinism(self, weaver, oracle_rag, bundle, populated_store):
        sample = bundle.test[0]
        a = _planner(weaver, oracle_rag, sample, store=populated_store)
        b = _planner(weaver, oracle_rag, sample, store=populated_store)
        assert a.tokens == b.tokens
        assert a.segments == b.segments

    def test_hand_counted_accounting_on_cached_combination(self, weaver, oracle_rag, bundle, populated_store, plan):
        # Pick a query whose retrieved tool set and first example are cached
        # as one leaf; the uncacheable region is then exactly the query.
        cached = {(leaf.tools, leaf.example_id) for leaf in plan.cached_leaves}
        for sample in bundle.test:
            prompt = _planner(weaver, oracle_rag, sample, k=1, store=populated_store)
            if (tuple(prompt.stats["retrieved_tools"]), prompt.stats["rag_example_ids"][0]) in cached:
                assert prompt.uncacheable_tokens == len(dict(prompt.segments)[SEG_USER_QUERY])
                break
        else:
            pytest.fail("no test query retrieved a cached leaf")

    def test_empty_retrieval_is_degenerate_but_valid(self, weaver, bundle):
        prompt = weaver.planner_prompt(bundle.test[0].query_tokens, set(), [])
        assert prompt.stats["degenerate_empty_retrieval"]
        assert prompt.total_tokens > 0
        assert dict(prompt.segments)[SEG_CLUSTERED_EXAMPLES] == ()

    def test_more_than_max_dynamic_examples_refused(self, weaver, bundle):
        query = bundle.test[0].query_tokens
        examples = bundle.examples[: MAX_DYNAMIC_EXAMPLES + 1]
        prompt = weaver.planner_prompt(query, set(bundle.registry.tool_ids()), examples[:MAX_DYNAMIC_EXAMPLES])
        assert prompt.stats["rag_example_ids"] == [ex.id for ex in examples[:MAX_DYNAMIC_EXAMPLES]]
        with pytest.raises(ValueError, match=f"at most {MAX_DYNAMIC_EXAMPLES}"):
            weaver.planner_prompt(query, set(bundle.registry.tool_ids()), examples)

    def test_double_tool_substitute_used_for_missing_singles(self, plan, bundle):
        # get_zoom_link has no single-tool example in the database; a
        # two-tool example mentioning it stands in.
        sub_id, tokens = plan.single_examples["get_zoom_link"]
        sub = next(ex for ex in bundle.examples if ex.id == sub_id)
        assert len(sub.tools) == 2 and "get_zoom_link" in sub.tools
        assert tokens == sub.example_tokens

    def test_duplicate_singles_flagged_not_removed(self, weaver, oracle_rag, bundle, plan):
        # A cluster whose example IS a single-tool example would duplicate;
        # the stats expose the count and tokens are kept either way.
        for sample in bundle.test:
            prompt = _planner(weaver, oracle_rag, sample)
            dup = prompt.stats["duplicate_single_tool_examples"]
            assert dup >= 0


class TestBaselinePrompt:
    def test_identical_query_gives_identical_prompt(self, weaver, oracle_rag, bundle):
        _, a = _prompts(weaver, oracle_rag, bundle.test[0])
        _, b = _prompts(weaver, oracle_rag, bundle.test[0])
        assert a.tokens == b.tokens

    def test_weaver_prompt_is_longer(self, weaver, oracle_rag, bundle):
        for sample in bundle.test[:10]:
            wp, bp = _prompts(weaver, oracle_rag, sample)
            assert wp.total_tokens >= bp.total_tokens

    def test_baseline_mostly_uncacheable_with_early_dynamicity(self, weaver, oracle_rag, bundle):
        fractions = []
        first_dynamic = []
        for sample in bundle.test:
            _, bp = _prompts(weaver, oracle_rag, sample)
            fractions.append(bp.uncacheable_tokens / bp.total_tokens)
            first_dynamic.append(bp.stats["first_dynamic_token_index"] / bp.total_tokens)
        assert statistics.mean(fractions) > 0.90
        assert statistics.mean(first_dynamic) < 0.05

    def test_reuse_dominance(self, weaver, oracle_rag, bundle, populated_store):
        for sample in bundle.test[:15]:
            wp, bp = _prompts(weaver, oracle_rag, sample, store=populated_store)
            assert wp.match_len >= bp.match_len

    def test_structural_preservation(self, weaver, oracle_rag, bundle):
        # Weaver descriptions are a superset of the baseline's, and the
        # baseline's top-1 example appears in the weaver prompt at k >= 1.
        for sample in bundle.test[:15]:
            retrieved = oracle_rag.retrieve_tools(sample.query_tokens, 0.5)
            wp, bp = _prompts(weaver, oracle_rag, sample)
            wp_desc = dict(wp.segments)[SEG_ALL_TOOL_DESCRIPTIONS]
            bp_desc = dict(bp.segments)[SEG_ALL_TOOL_DESCRIPTIONS]
            assert set(bp_desc) <= set(wp_desc)
            top1 = oracle_rag.retrieve_examples(sample.query_tokens, retrieved, 1)
            if top1:
                needle = top1[0].example_tokens
                hay = wp.tokens
                assert any(hay[i: i + len(needle)] == needle for i in range(len(hay)))


class TestArbiterPrompt:
    def test_empty_observations_fully_cacheable(self, weaver, populated_store):
        prompt = weaver.arbiter_prompt([], store=populated_store)
        assert prompt.cacheable_tokens == prompt.total_tokens

    def test_uncached_store_gives_zero(self, weaver):
        prompt = weaver.arbiter_prompt([1, 2, 3], store=None)
        assert prompt.cacheable_tokens == 0

    def test_precomputed_variants_mostly_cacheable(self, weaver, bundle, populated_store):
        fractions = []
        for sample in bundle.test:
            obs = bundle.tokenizer.tokenize(pipeline.observation_text(sample.gt_plan))
            prompt = weaver.arbiter_prompt(obs, store=populated_store)
            fractions.append(prompt.cacheable_tokens / prompt.total_tokens)
        assert min(fractions) >= 0.85


class TestOfflineKeysMatchOnlineLayout:
    """Every precomputed key is the head of the prompt that should use it, and is served in full."""

    def test_planner_keys(self, weaver, bundle, plan, populated_store):
        query = bundle.test[0].query_tokens
        by_id = {ex.id: ex for ex in bundle.examples}
        cases = [((), [], weaver.static_planner_prefix())]
        cases += [
            (leaf.tools, [by_id[leaf.example_id]], weaver.leaf_prefix(leaf.tools) + leaf.example_tokens) for leaf in plan.cached_leaves
        ]
        assert len(cases) > 1
        for tools, examples, key in cases:
            prompt = weaver.planner_prompt(query, tools, examples, store=populated_store)
            assert tuple(prompt.tokens[: len(key)]) == key
            assert prompt.match_len >= len(key)

    def test_each_leaf_key_is_the_prompt_head_of_a_train_query(self, weaver, bundle, plan, oracle_rag):
        # The key ends where the query begins, in the prompt of a train query
        # that retrieves its true tool set, the key's, and ranks the key's
        # example first.
        train = {}
        for sample, example in zip(bundle.train, bundle.top_train_examples()):
            train.setdefault((tuple(sorted(sample.gt_tools)), example.id), sample)
        for leaf in plan.cached_leaves:
            sample = train[leaf.tools, leaf.example_id]
            examples = oracle_rag.retrieve_examples(sample.query_tokens, sample.gt_tools, 1)
            prompt = weaver.planner_prompt(sample.query_tokens, sample.gt_tools, examples)
            key = weaver.leaf_prefix(leaf.tools) + leaf.example_tokens
            assert key + sample.query_tokens == prompt.tokens

    def test_a_query_ranking_another_example_first_is_served_the_leaf(self, weaver, bundle, plan, populated_store):
        # Its prompt leaves the cached key inside the key's example: the
        # served entry is that key cut at the first token the prompt differs
        # in, which is at least the tool set's leaf.
        cached = {(leaf.tools, leaf.example_id) for leaf in plan.cached_leaves}
        keys = populated_store.entries.values()
        query = bundle.test[0].query_tokens
        cases = 0
        for leaf in plan.cached_leaves:
            for example in bundle.examples:
                if example.tools <= set(leaf.tools) and (leaf.tools, example.id) not in cached:
                    prompt = weaver.planner_prompt(query, leaf.tools, [example], store=populated_store)
                    served = max(common_head(entry.key, prompt.tokens) for entry in keys)
                    assert prompt.match_len == served >= len(weaver.leaf_prefix(leaf.tools))
                    assert prompt.cache_entry.key[:served] == prompt.tokens[:served]
                    assert prompt.cache_entry.token_count > served
                    cases += 1
        assert cases

    def test_an_uncached_tool_set_is_served_through_its_shared_cluster_run(self, weaver, bundle, plan, populated_store):
        # A tool set that is not cached, but activates the same clusters as a
        # cached one, is served at least through their common cluster run.
        cached = {leaf.tools for leaf in plan.cached_leaves}
        query = bundle.test[0].query_tokens
        cases = 0
        for tools in cached:
            activated = plan.activation_sequence(tools)
            for other in {tuple(sorted(s.gt_tools)) for s in bundle.train} | {tuple(sorted(set(tools) - {t})) for t in tools}:
                if other in cached or not other or plan.activation_sequence(other) != activated:
                    continue
                prompt = weaver.planner_prompt(query, other, [], store=populated_store)
                clustered = dict(prompt.segments)[SEG_CLUSTERED_EXAMPLES]
                assert prompt.match_len >= len(weaver.static_planner_prefix()) + len(clustered) > 0
                cases += 1
        assert cases

    def test_arbiter_keys(self, weaver, populated_store):
        key = weaver.arbiter_prefix()
        prompt = weaver.arbiter_prompt([], store=populated_store)
        assert tuple(prompt.tokens[: len(key)]) == key
        assert prompt.match_len >= len(key)


class TestTokenReduction:
    def test_uncacheable_reduced_at_least_sixty_percent(self, weaver, oracle_rag, bundle, populated_store):
        base, woven = [], []
        for sample in bundle.test:
            wp, bp = _prompts(weaver, oracle_rag, sample, store=populated_store)
            base.append(bp.uncacheable_tokens)
            woven.append(wp.uncacheable_tokens)
            # Independent recount: segments after the matched prefix.
            recount = sum(len(t) for _, t in wp.segments) - wp.match_len
            assert recount == wp.uncacheable_tokens
        reduction = 1 - statistics.mean(woven) / statistics.mean(base)
        assert reduction >= 0.60


class TestStaticTokens:
    """A prompt's static tokens are the served part of its run-wide head."""

    def test_served_head_of_each_prompt(self, weaver, oracle_rag, bundle, populated_store):
        head = len(weaver.static_planner_prefix())
        for sample in bundle.test[:10]:
            planner, baseline = _prompts(weaver, oracle_rag, sample, store=populated_store)
            assert planner.match_len > head and planner.static_tokens == head
            assert _prompts(weaver, oracle_rag, sample)[0].static_tokens == 0  # nothing served
            assert baseline.static_tokens == baseline.match_len == baseline.stats["first_dynamic_token_index"]  # the greeting
        arbiter = weaver.arbiter_prompt([7, 8], store=populated_store)
        assert arbiter.static_tokens == len(weaver.arbiter_prefix()) == arbiter.match_len
        assert arbiter.to_dict()["static_tokens"] == arbiter.static_tokens

    def test_a_head_served_in_part_counts_only_the_served_part(self, weaver, bundle, tmp_path, desk_geometry):
        store = KVStore(tmp_path)
        store.precompute({TAG_STATIC: [weaver.static_planner_prefix()[:10]]}, desk_geometry)
        prompt = weaver.planner_prompt(bundle.test[0].query_tokens, bundle.test[0].gt_tools, [], store=store)
        assert prompt.match_len == prompt.static_tokens == 10

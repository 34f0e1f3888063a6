import statistics

import pytest

from agentaccel import pipeline
from agentaccel.kvstore import TAG_STATIC, KVStore
from agentaccel.weaver import (
    MAX_DYNAMIC_EXAMPLES,
    PLANNER_SEGMENT_ORDER,
    SEG_ALL_TOOL_DESCRIPTIONS,
    SEG_CLUSTERED_EXAMPLES,
    SEG_RAG_EXAMPLES,
    SEG_SINGLE_TOOL_EXAMPLES,
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
        weaver.baseline_prompt(sample.query_tokens, retrieved, examples[: settings.top_k], store=store),
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
        # Pick a query whose activated combination is cached in full; the
        # uncacheable region is then exactly singles + rag + query, counted
        # segment by segment.
        cached = set(plan.cached_combinations)
        for sample in bundle.test:
            prompt = _planner(weaver, oracle_rag, sample, k=1, store=populated_store)
            activated = tuple(prompt.stats["activated_clusters"])
            if activated in cached:
                segments = dict(prompt.segments)
                singles = len(segments[SEG_SINGLE_TOOL_EXAMPLES])
                rag = len(segments[SEG_RAG_EXAMPLES])
                query = len(segments[SEG_USER_QUERY])
                assert prompt.uncacheable_tokens == singles + rag + query
                break
        else:
            pytest.fail("no test query hit a fully cached combination")

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

    def test_double_tool_substitute_used_for_missing_singles(self, weaver, bundle, oracle_rag):
        # get_zoom_link has no single-tool example in the database; a
        # two-tool example mentioning it stands in.
        sub = weaver._single_example["get_zoom_link"]
        assert sub is not None
        assert len(sub.tools) == 2 and "get_zoom_link" in sub.tools

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
                needle = list(top1[0].example_tokens)
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

    @staticmethod
    def _retrieval_activating(plan, combo) -> set[str]:
        outside = {t for c in plan.clusters if c.id not in combo for t in c.tool_ids}
        return {t for c in plan.clusters if c.id in combo for t in c.tool_ids} - outside

    def test_planner_keys(self, weaver, bundle, plan, populated_store):
        query = bundle.test[0].query_tokens
        cases = [((), weaver.static_planner_prefix())]
        cases += [(combo, weaver.combination_prefix(combo)) for combo in plan.cached_combinations]
        assert len(cases) > 1
        for combo, key in cases:
            retrieved = self._retrieval_activating(plan, combo)
            prompt = weaver.planner_prompt(query, retrieved, bundle.examples[:1], store=populated_store)
            assert tuple(prompt.stats["activated_clusters"]) == tuple(combo)
            assert tuple(prompt.tokens[: len(key)]) == key
            assert prompt.match_len >= len(key)

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
            assert baseline.static_tokens == min(baseline.match_len, len(weaver.baseline_header_prefix()))
        arbiter = weaver.arbiter_prompt([7, 8], store=populated_store)
        assert arbiter.static_tokens == len(weaver.arbiter_prefix()) == arbiter.match_len
        assert arbiter.to_dict()["static_tokens"] == arbiter.static_tokens

    def test_a_head_served_in_part_counts_only_the_served_part(self, weaver, bundle, tmp_path, desk_geometry):
        store = KVStore(tmp_path)
        store.precompute({TAG_STATIC: [weaver.static_planner_prefix()[:10]]}, desk_geometry)
        prompt = weaver.planner_prompt(bundle.test[0].query_tokens, bundle.test[0].gt_tools, [], store=store)
        assert prompt.match_len == prompt.static_tokens == 10

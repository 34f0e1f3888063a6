import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentaccel import corpus, pipeline
from agentaccel.tokenizer import EOS_ID, Tokenizer
from agentaccel.toolrag import TfidfEmbedder, ToolRag, cosine


class FixedScorer:
    def __init__(self, scores):
        self._scores = scores

    def score(self, query_tokens, embed_query):
        return dict(self._scores)


def _rag_with_scores(bundle, scores):
    return ToolRag(bundle.examples, bundle.embedder, FixedScorer(scores), bundle.tokenizer)


def test_threshold_arithmetic(bundle):
    scores = {t: 0.0 for t in bundle.registry.tool_ids()}
    scores.update({"open_note": 0.9, "create_note": 0.4, "search_notes": 0.05})
    rag = _rag_with_scores(bundle, scores)
    assert rag.retrieve_tools((1,), tau=0.5) == {"open_note"}


def test_tau_zero_selects_everything(bundle):
    scores = {t: 0.0 for t in bundle.registry.tool_ids()}
    rag = _rag_with_scores(bundle, scores)
    assert rag.retrieve_tools((1,), tau=0.0) == set(bundle.registry.tool_ids())


def test_oracle_scorer_returns_exactly_gt(bundle, oracle_rag):
    for sample in bundle.test:
        assert oracle_rag.retrieve_tools(sample.query_tokens, 0.5) == set(sample.gt_tools)


def test_embedder_deterministic_and_self_similar(bundle):
    emb = bundle.embedder
    text = "schedule a video call with maria"
    v1, v2 = emb.embed(text), emb.embed(text)
    assert np.array_equal(v1, v2)
    assert cosine(v1, v1) == pytest.approx(1.0)


def test_retrieve_examples_k_zero(bundle, oracle_rag):
    sample = bundle.test[0]
    assert oracle_rag.retrieve_examples(sample.query_tokens, sample.gt_tools, 0) == []


def test_filter_leaves_only_eligible(bundle, oracle_rag):
    # selected = notes pair: only examples whose tools fall inside it qualify.
    selected = {"create_note", "append_note_content"}
    got = oracle_rag.retrieve_examples(bundle.tokenizer.tokenize("start a note"), selected, 10)
    assert got, "some eligible examples expected"
    for ex in got:
        assert ex.tools <= selected
    eligible_count = sum(1 for ex in bundle.examples if ex.tools <= selected)
    assert len(got) == eligible_count


def test_short_eligible_list_returned_in_similarity_order(bundle):
    # Oracle: exhaustive cosine computation over the eligible set.
    tok = bundle.tokenizer
    query = tok.tokenize("append the grocery list note")
    selected = {"create_note", "append_note_content"}
    rag = bundle.make_rag("cosine")
    got = rag.retrieve_examples(query, selected, 3)
    qv = bundle.embedder.embed(tok.detokenize(query))
    expected = sorted(
        (ex for ex in bundle.examples if ex.tools <= selected),
        key=lambda ex: (-cosine(qv, ex.query_embedding), ex.id),
    )[:3]
    assert [e.id for e in got] == [e.id for e in expected]


def test_topk_matches_brute_force_scan(bundle):
    rag = bundle.make_rag("cosine")
    tok = bundle.tokenizer
    all_tools = set(bundle.registry.tool_ids())
    for sample in bundle.test[:20]:
        got = rag.retrieve_examples(sample.query_tokens, all_tools, 3)
        qv = bundle.embedder.embed(tok.detokenize(sample.query_tokens))
        expected = sorted(bundle.examples, key=lambda ex: (-cosine(qv, ex.query_embedding), ex.id))[:3]
        assert [e.id for e in got] == [e.id for e in expected]


def _random_db(rng, tools, n):
    texts = [
        " ".join(rng.choice(["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]) for _ in range(rng.randint(3, 8)))
        for _ in range(n)
    ]
    embedder = TfidfEmbedder.fit(texts)
    tok = Tokenizer()
    examples = [
        corpus.ToolUseExample(
            id=f"e{i:03d}",
            example_text=texts[i],
            example_tokens=tuple(tok.tokenize(texts[i])),
            tools=frozenset(rng.sample(tools, rng.randint(1, 3))),
            query_embedding=embedder.embed(texts[i]),
        )
        for i in range(n)
    ]
    return embedder, tok, examples


def test_randomized_rank_correctness_and_filter_soundness():
    rng = random.Random(23)
    tools = [f"t{i}" for i in range(6)]
    embedder, tok, examples = _random_db(rng, tools, 120)
    rag = ToolRag(examples, embedder, FixedScorer({}), tok)
    for _ in range(40):
        query = tok.tokenize(" ".join(rng.choice(["alpha", "beta", "gamma", "kappa"]) for _ in range(4)))
        selected = set(rng.sample(tools, rng.randint(0, 6)))
        k = rng.randint(0, 10)
        got = rag.retrieve_examples(query, selected, k)
        for ex in got:
            assert ex.tools <= selected
        qv = embedder.embed(tok.detokenize(query))
        expected = sorted(
            (ex for ex in examples if ex.tools <= selected),
            key=lambda ex: (-cosine(qv, ex.query_embedding), ex.id),
        )[: k]
        assert [e.id for e in got] == [e.id for e in expected]


def test_monotonicity_enlarging_selected_never_removes_eligible():
    rng = random.Random(29)
    tools = [f"t{i}" for i in range(6)]
    embedder, tok, examples = _random_db(rng, tools, 60)
    rag = ToolRag(examples, embedder, FixedScorer({}), tok)
    query = tok.tokenize("alpha beta")
    small = set(rng.sample(tools, 3))
    large = small | set(rng.sample(tools, 3))
    small_ids = {e.id for e in rag.retrieve_examples(query, small, 1000)}
    large_ids = {e.id for e in rag.retrieve_examples(query, large, 1000)}
    assert small_ids <= large_ids


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_top_k_is_a_prefix_of_top_m(bundle, data):
    # One retrieval of the top max(k, top_k) examples serves both prompts of a query.
    rag = bundle.make_rag("cosine")
    query = data.draw(st.sampled_from(bundle.test + bundle.train[:40])).query_tokens
    selected = data.draw(st.sets(st.sampled_from(bundle.registry.tool_ids())))
    m = data.draw(st.integers(0, len(bundle.examples) + 1))
    ranked = rag.retrieve_examples(query, selected, m)
    for k in range(m + 1):
        assert rag.retrieve_examples(query, selected, k) == ranked[:k]


def test_cosine_scorer_scores_every_tool(bundle):
    rag = bundle.make_rag("cosine")
    scores = rag.scorer.score(bundle.test[0].query_tokens, rag.embed_query)
    assert set(scores) == set(bundle.registry.tool_ids())
    assert all(0.0 <= v <= 1.0 for v in scores.values())


def test_cosine_run_embeds_each_example_and_query_once(fixture_paths, plan, monkeypatch):
    # Loading embeds each example's text; scoring and ranking share each
    # query's embedding, made from its token ids, and a query equal to the
    # one before it reuses that one's.
    texts, embedded = [], []
    embed, embed_dims = TfidfEmbedder.embed, TfidfEmbedder.embed_dims
    monkeypatch.setattr(TfidfEmbedder, "embed", lambda self, text: texts.append(text) or embed(self, text))
    monkeypatch.setattr(TfidfEmbedder, "embed_dims", lambda self, dims: embedded.append(list(dims)) or embed_dims(self, dims))
    paths = [fixture_paths[name] for name in ("registry", "train", "test", "examples", "vocab")]
    bundle = pipeline.load_bundle(*paths)
    records = pipeline.run_queries(bundle, plan, None, pipeline.RunSettings(scorer="cosine"))
    queries = [sample.query_tokens for sample in bundle.test]
    fresh = [q for i, q in enumerate(queries) if i == 0 or q != queries[i - 1]]
    assert (len(bundle.examples), len(records), len(fresh)) == (36, 60, 59)
    assert len(texts) == 36 and len(embedded) == 36 + 59
    dims = bundle.embedder.token_dims(bundle.tokenizer)
    assert embedded[36:] == [list(dims[list(q)]) for q in fresh]


def _embedded_both_ways(embedder, tokenizer, tokens):
    """The embedding of `tokens` from their ids, and of their detokenized text."""
    from_ids = embedder.embed_dims(embedder.token_dims(tokenizer)[np.array(tokens, dtype=np.intp)])
    return from_ids, embedder.embed(tokenizer.detokenize(tokens))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_embedding_from_token_ids_is_bit_identical_to_embedding_the_text(bundle, data):
    # Any sequence over the fixture vocabulary, EOS included; words the
    # embedder was not fitted on count nowhere either way.
    ids = sorted(bundle.tokenizer.defined_ids | {EOS_ID})
    query = data.draw(st.sampled_from(bundle.train + bundle.test)).query_tokens
    tokens = data.draw(st.one_of(st.just(list(query)), st.lists(st.sampled_from(ids), max_size=40)))
    from_ids, from_text = _embedded_both_ways(bundle.embedder, bundle.tokenizer, tokens)
    assert from_ids.tobytes() == from_text.tobytes()


def test_every_fixture_query_embeds_bit_identically_from_its_ids(bundle):
    rag = bundle.make_rag("cosine")
    for sample in bundle.train + bundle.test:
        from_ids, from_text = _embedded_both_ways(bundle.embedder, bundle.tokenizer, sample.query_tokens)
        assert from_ids.tobytes() == from_text.tobytes() == rag.embed_query(sample.query_tokens).tobytes()


def test_a_query_with_a_word_tokenized_after_the_id_map_embeds_it(bundle):
    # The map is rebuilt once a query holds an id past it.
    texts = ["alpha beta", "beta gamma"]
    embedder, tok = TfidfEmbedder.fit(texts), Tokenizer()
    rag = ToolRag([], embedder, FixedScorer({}), tok)
    first = rag.embed_query(tok.tokenize("alpha"))
    later = rag.embed_query(tok.tokenize("alpha gamma"))
    assert first.tobytes() == embedder.embed("alpha").tobytes()
    assert later.tobytes() == embedder.embed("alpha gamma").tobytes()


def test_top_examples_equal_the_first_retrieved_for_every_fixture_train_query(bundle):
    # What build-plan caches behind each leaf ranks first online for the
    # same query and tool set.
    rag = bundle.make_rag("oracle")
    top = bundle.top_train_examples()
    assert len(top) == len(bundle.train) and all(top)
    for sample, example in zip(bundle.train, top):
        assert rag.retrieve_examples(sample.query_tokens, sample.gt_tools, 1) == [example]


def test_top_examples_take_ties_and_near_ties_as_retrieval_does():
    # Six words over tiny texts: many examples score equally, or within a
    # few ulps, for one query, and some tool sets have no eligible example.
    rng = random.Random(31)
    tools = [f"t{i}" for i in range(6)]
    embedder, tok, examples = _random_db(rng, tools, 80)
    rag = ToolRag(examples, embedder, FixedScorer({}), tok)
    samples = [
        types.SimpleNamespace(
            query_tokens=tuple(tok.tokenize(" ".join(rng.choice(["alpha", "beta", "gamma", "kappa"]) for _ in range(rng.randint(0, 5))))),
            gt_tools=frozenset(rng.sample(tools, rng.randint(1, 3)) if rng.random() < 0.9 else ["t_unused"]),
        )
        for _ in range(400)
    ]
    top = ToolRag(examples, embedder, None, tok).top_examples(samples)
    assert top == [(rag.retrieve_examples(s.query_tokens, s.gt_tools, 1) or [None])[0] for s in samples]
    assert None in top
    first_two = [rag.retrieve_examples(s.query_tokens, s.gt_tools, 2) for s in samples]
    query_vecs = [rag.embed_query(s.query_tokens) for s in samples]
    assert any(len(two) == 2 and cosine(q, two[0].query_embedding) == cosine(q, two[1].query_embedding) for q, two in zip(query_vecs, first_two))

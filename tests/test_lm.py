from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentaccel.exspec import build_lut, decode
from agentaccel.lm import MarkovModel, ReferenceModel, ScriptedModel, greedy_decode, train_markov
from agentaccel.tokenizer import EOS_ID, sequence_hash


class TestScripted:
    def test_replays_script_exactly(self):
        model = ScriptedModel((1, 2), (10, 11, 12))
        assert greedy_decode(model, [1, 2], 10) == [10, 11, 12]

    def test_max_tokens_zero(self):
        model = ScriptedModel((1,), (5,))
        assert greedy_decode(model, [1], 0) == []

    def test_truncation_at_max_tokens(self):
        model = ScriptedModel((1,), (5, 6, 7, 8))
        assert greedy_decode(model, [1], 2) == [5, 6]

    def test_unknown_prompt_ends_immediately(self):
        model = ScriptedModel((1,), (5,))
        assert greedy_decode(model, [9, 9], 5) == []

    def test_script_key_stability(self):
        assert sequence_hash([1, 2, 3]) == sequence_hash((1, 2, 3))


class TestMarkov:
    def test_counts_match_direct_window_count(self):
        # Corpus "a b a b" with order 1: after a comes b every time.
        model = train_markov([[1, 2, 1, 2]], order=1)
        dist = model.next_distribution([5, 1])
        assert dist[2] == pytest.approx(1.0)
        assert model.counts[(1,)][2] == 2

    def test_hand_simulated_chain_order_two(self):
        # Three sentences; trace the argmax chain by hand.
        #   s1: a b c    s2: a b c    s3: b c d
        # Counts: (a,b)->c x2, (b,c)->{eos x2, d x1} -> eos wins,
        #        (c,d)->eos.
        a, b, c, d = 1, 2, 3, 4
        model = train_markov([[a, b, c], [a, b, c], [b, c, d]], order=2)
        assert greedy_decode(model, [a, b], 10) == [c]
        dist = model.next_distribution([b, c])
        assert dist[EOS_ID] > dist[d]

    def test_smoothing_gives_full_support(self):
        model = train_markov([[1, 2]], order=1, smoothing=0.5)
        dist = model.next_distribution([1])
        assert all(p > 0 for p in dist.values())
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_short_context_falls_back_to_unigram(self):
        model = train_markov([[1, 1, 2]], order=2)
        dist = model.next_distribution([])
        # Unigram: token 1 twice, token 2 once, EOS once.
        assert dist[1] == pytest.approx(0.5)
        assert dist[2] == pytest.approx(0.25)

    def test_unseen_context_falls_back_to_unigram(self):
        model = train_markov([[1, 2, 3]], order=2)
        assert model.next_distribution([9, 9]) == model.next_distribution([])

    def test_determinism_across_runs(self):
        corpus_data = [[1, 2, 3, 4], [2, 3, 4, 5]]
        m1 = train_markov(corpus_data, order=2, smoothing=0.1)
        m2 = train_markov(corpus_data, order=2, smoothing=0.1)
        ctx = [2, 3]
        assert m1.next_distribution(ctx) == m2.next_distribution(ctx)
        assert greedy_decode(m1, [1, 2], 20) == greedy_decode(m2, [1, 2], 20)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            train_markov([[1]], order=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_markov([], order=1)


def _lowest_id_argmax(dist):
    best_p = max(dist.values())
    return min(tok for tok, p in dist.items() if p == best_p)


class TestMarkovGreedyTable:
    """The precomputed argmax table against the full distribution it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(
        corpus_data=st.lists(st.lists(st.integers(1, 4), max_size=12), min_size=1, max_size=6),
        order=st.integers(1, 3),
        smoothing=st.sampled_from([0.0, 0.3, 1.0]),
        unseen=st.lists(st.lists(st.integers(0, 6), max_size=5), max_size=6),
    )
    def test_greedy_next_is_lowest_id_argmax_of_distribution(self, corpus_data, order, smoothing, unseen):
        # Tokens 1-4 make ties common; 5 and 6 never occur in the corpus.
        model = train_markov(corpus_data, order=order, smoothing=smoothing)
        seen = [list(key) for key in model.counts]
        contexts = seen + [[6, 5] + ctx for ctx in seen] + unseen + [[], [1] * (order - 1)]
        for ctx in contexts:
            assert model.greedy_next(ctx) == _lowest_id_argmax(model.next_distribution(ctx)), ctx

    def test_tie_between_successors_goes_to_lowest_id(self):
        # After 1 come 3 and 2 once each: both equally likely.
        model = train_markov([[1, 3], [1, 2]], order=1, smoothing=0.5)
        assert model.greedy_next([1]) == 2

    def test_hand_built_counts_outside_the_shortcut(self):
        # Zero counts, successors outside the vocabulary, a non-positive total.
        counts = {(1,): Counter({5: 0}), (2,): Counter({9: 4, 3: 0}), (3,): Counter({3: 1, 5: -10})}
        model = MarkovModel(1, counts, Counter({3: 2}), vocab={0, 3, 5}, smoothing=0.5)
        for ctx in ([1], [2], [3], [4], []):
            assert model.greedy_next(ctx) == _lowest_id_argmax(model.next_distribution(ctx)), ctx

    def test_greedy_step_is_not_overridden(self):
        # One method takes every greedy step, so wrapping it observes them all,
        # the steps of a bound model included.
        bound = type(ScriptedModel((1,), (2,)).bind([1]))
        assert bound is not ScriptedModel and issubclass(bound, ReferenceModel)
        assert all("greedy_next" not in vars(cls) for cls in (ScriptedModel, MarkovModel, bound))
        assert "greedy_next" in vars(ReferenceModel)


tokens = st.integers(1, 3)
token_runs = st.lists(tokens, max_size=5)


@st.composite
def bound_prompts(draw):
    """A decode prompt and a scripted model around it.

    The model's prompt is the decode prompt, a head of it (the empty one
    included), an extension of it or an unrelated prompt, and its script
    may be empty.  Tokens 1-3 make unrelated prompts and off-script tails
    collide with the prompt often.
    """
    prompt = tuple(draw(st.lists(tokens, max_size=6)))
    relation = draw(st.sampled_from(["equal", "head", "extension", "unrelated"]))
    if relation == "equal":
        key = prompt
    elif relation == "head":
        key = prompt[: draw(st.integers(0, len(prompt)))]
    elif relation == "extension":
        key = prompt + tuple(draw(st.lists(tokens, min_size=1, max_size=3)))
    else:
        key = tuple(draw(token_runs))
    return list(prompt), ScriptedModel(key, draw(token_runs))


def _tails(prompt, model, drawn):
    """Tails after the prompt: on the script, past its end, off it, and empty."""
    tails = [[]] + drawn
    full = list(model.prompt + model.script)
    if full[: len(prompt)] == prompt:
        tails += [full[len(prompt): len(prompt) + k] for k in range(len(full) - len(prompt) + 3)]
        tails += [t + [9] for t in tails[-3:]]
    return tails


class _ReadCounting(tuple):
    """A tuple that counts its item and slice reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestBoundScripted:
    """`bind` against the unbound distribution, the oracle it replaces."""

    @settings(max_examples=400, deadline=None)
    @given(case=bound_prompts(), drawn=st.lists(st.lists(tokens, max_size=8), max_size=4))
    def test_bound_step_is_lowest_argmax_of_distribution(self, case, drawn):
        prompt, model = case
        bound = model.bind(prompt)
        # The bound step is taken exactly when the prompt extends the model's.
        assert (bound is model) == (tuple(prompt[: len(model.prompt)]) != model.prompt)
        for tail in _tails(prompt, model, drawn):
            ctx = prompt + tail
            assert bound.greedy_next(ctx) == _lowest_id_argmax(model.next_distribution(ctx)), (prompt, tail)

    @settings(max_examples=200, deadline=None)
    @given(
        case=bound_prompts(),
        region=st.lists(tokens, max_size=20),
        n=st.integers(2, 4),
        n_draft=st.integers(1, 5),
        max_tokens=st.integers(0, 12),
    )
    def test_decode_equals_unbound_greedy(self, case, region, n, n_draft, max_tokens):
        prompt, model = case
        lut = build_lut(prompt + region, n)
        expected = greedy_decode(model, prompt, max_tokens)
        for selective in (True, False):
            assert decode(model, prompt, lut, n_draft, selective, max_tokens)[0] == expected

    @settings(max_examples=200, deadline=None)
    @given(case=bound_prompts(), drawn=st.lists(st.lists(tokens, max_size=8), max_size=4))
    def test_own_prompt_binds_like_an_equal_one(self, case, drawn):
        # The pipeline decodes the model's own prompt object, which `bind` takes unchecked.
        _, model = case
        prompt = list(model.prompt)
        own, equal = model.bind(model.prompt), model.bind(tuple(prompt))
        assert type(own) is type(equal) is not ScriptedModel
        for tail in _tails(prompt, model, drawn):
            ctx = prompt + tail
            assert own.greedy_next(ctx) == equal.greedy_next(ctx) == _lowest_id_argmax(model.next_distribution(ctx))

    def test_only_the_own_prompt_object_skips_the_check(self):
        model = ScriptedModel((1, 2, 3), (4, 5))
        model.prompt = own = _ReadCounting((1, 2, 3))
        assert type(model.bind(own)) is not ScriptedModel and own.reads == 0
        equal = _ReadCounting((1, 2, 3))
        assert type(model.bind(equal)) is not ScriptedModel and equal.reads > 0
        assert model.bind(_ReadCounting((1, 2, 9))) is model

    def test_markov_binds_to_itself(self):
        model = train_markov([[1, 2, 3]], order=2)
        assert model.bind([1, 2]) is model


class TieModel(ReferenceModel):
    """Its own distribution: a tie between 7 and 3 for three steps, then EOS."""

    def next_distribution(self, context):
        return {7: 0.5, 3: 0.5} if len(context) < 4 else {EOS_ID: 1.0}


class TestGreedy:
    def test_tie_breaks_to_lowest_token_id(self):
        model = TieModel()
        assert model.greedy_next([]) == 3

    def test_subclass_distribution_survives_bind(self):
        model = TieModel()
        assert model.bind([1]) is model
        lut = build_lut([1, 3, 3, 3], n=2)
        for selective in (True, False):
            assert decode(model, [1], lut, 4, selective, 10)[0] == greedy_decode(model, [1], 10) == [3, 3, 3]

    def test_negative_max_tokens_rejected(self):
        with pytest.raises(ValueError):
            greedy_decode(ReferenceModel(), [], -1)

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentaccel import exspec, pipeline
from agentaccel.exspec import MISS, NGramLUT, PlanGrammar, build_lut, count_head, decode, verify
from agentaccel.lm import ReferenceModel, ScriptedModel, greedy_decode, train_markov
from agentaccel.simulator import MEASURED_TAX, decode_seconds
from agentaccel.tokenizer import EOS_ID, Tokenizer


def _reference_lut(extraction_region, n, defined=None):
    """Two-pass build: count every (key, successor) pair, then rank per key.

    With `defined`, windows and filler candidates outside it are skipped.
    """
    stream = list(extraction_region)
    # (key, successor) -> [count, first occurrence index]
    pair_stats = {}
    for i in range(len(stream) - n + 1):
        if defined is not None and not set(stream[i: i + n]) <= defined:
            continue
        key = tuple(stream[i: i + n - 1])
        nxt = stream[i + n - 1]
        stat = pair_stats.get((key, nxt))
        if stat is None:
            pair_stats[(key, nxt)] = [1, i]
        else:
            stat[0] += 1

    table = {}
    best_rank = {}
    for (key, nxt), (count, first) in pair_stats.items():
        rank = (-count, first)
        if key not in best_rank or rank < best_rank[key]:
            best_rank[key] = rank
            table[key] = (nxt, count)

    filler = EOS_ID
    if stream:
        tok_stats = {}
        for i, tok in enumerate(stream):
            if defined is not None and tok not in defined:
                continue
            stat = tok_stats.get(tok)
            if stat is None:
                tok_stats[tok] = [1, i]
            else:
                stat[0] += 1
        filler = min(tok_stats, key=lambda t: (-tok_stats[t][0], tok_stats[t][1]), default=EOS_ID)
    return NGramLUT(n=n, table=table, filler=filler, source_token_count=len(stream))


class TestBuildLut:
    def test_tie_breaks_to_earliest_first_occurrence(self):
        # stream a b c a b d: key (a,b) sees c then d, once each; c wins.
        lut = build_lut([1, 2, 3, 1, 2, 4], n=3)
        assert lut.table[(1, 2)] == (3, 1)

    def test_stream_shorter_than_n_gives_empty_table(self):
        lut = build_lut([1, 2], n=3)
        assert len(lut) == 0
        assert lut.lookup([1, 2]) is None

    def test_frequency_counted(self):
        lut = build_lut([1, 2, 3, 1, 2, 3], n=3)
        assert lut.table[(1, 2)] == (3, 2)

    def test_majority_successor_wins(self):
        # (a,b) -> c appears twice, -> d once.
        lut = build_lut([1, 2, 4, 1, 2, 3, 1, 2, 3], n=3)
        assert lut.table[(1, 2)][0] == 3

    def test_table_size_bound(self):
        rng = random.Random(3)
        stream = [rng.randint(1, 5) for _ in range(200)]
        lut = build_lut(stream, n=3)
        assert len(lut) <= len(stream) - 2

    def test_filler_is_most_frequent_token(self):
        lut = build_lut([7, 8, 7, 9, 7, 8], n=2)
        assert lut.filler == 7

    def test_n_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            build_lut([1, 2, 3], n=1)


class TestBuildLutOracle:
    @settings(max_examples=300, deadline=None)
    @given(stream=st.lists(st.integers(1, 4), max_size=60), n=st.integers(2, 4))
    @example(stream=[], n=3)
    @example(stream=[1, 2], n=3)
    @example(stream=[1, 2, 4, 1, 2, 3, 2, 4], n=3)  # (1,2) tied between 4 and 3; 1, 2, 4 tied as filler
    def test_matches_two_pass_reference(self, stream, n):
        lut = build_lut(stream, n)
        assert lut == _reference_lut(stream, n)
        assert list(lut.table) == list(_reference_lut(stream, n).table)


class TestDefinedTokens:
    @settings(max_examples=300, deadline=None)
    @given(
        stream=st.lists(st.integers(0, 5), max_size=60),
        defined=st.frozensets(st.integers(0, 5)),
        n=st.integers(2, 4),
    )
    @example(stream=[1, 2, 6, 1, 2, 3], defined=frozenset({1, 2, 3}), n=3)  # (1,2)->6 counted first, but dropped
    @example(stream=[6, 6, 6, 1], defined=frozenset({1}), n=2)  # 6 is the most frequent, not the filler
    @example(stream=[6, 6], defined=frozenset(), n=2)  # nothing defined: empty table, EOS filler
    def test_matches_reference_over_defined_windows(self, stream, defined, n):
        lut = build_lut(stream, n, defined=defined)
        assert lut == _reference_lut(stream, n, defined)
        assert list(lut.table) == list(_reference_lut(stream, n, defined).table)
        held = {t for key, (succ, _) in lut.table.items() for t in (*key, succ)}
        assert held <= defined


class TestTableDocument:
    @settings(max_examples=100, deadline=None)
    @given(stream=st.lists(st.integers(0, 6), max_size=50), n=st.integers(2, 4))
    def test_round_trip(self, stream, n):
        lut = build_lut(stream, n)
        again = NGramLUT.from_dict(json.loads(json.dumps(lut.to_dict())))
        assert again == lut
        assert list(again.table) == list(lut.table)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda doc: [], id="not_an_object"),
            pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "n"}, id="n_missing"),
            pytest.param(lambda doc: dict(doc, n=1), id="n_below_two"),
            pytest.param(lambda doc: dict(doc, n=True), id="n_a_bool"),
            pytest.param(lambda doc: dict(doc, filler=-1), id="filler_negative"),
            pytest.param(lambda doc: dict(doc, source_token_count="5"), id="count_a_string"),
            pytest.param(lambda doc: dict(doc, entries={}), id="entries_not_a_list"),
            pytest.param(lambda doc: dict(doc, entries=[[1, 2, 3]]), id="entry_too_short"),
            pytest.param(lambda doc: dict(doc, entries=[[1, 2, "3", 1]]), id="entry_with_a_string"),
            pytest.param(lambda doc: dict(doc, entries=[[1, 2, 3, 0]]), id="count_zero"),
            pytest.param(lambda doc: dict(doc, entries=[[1, -2, 3, 1]]), id="id_negative"),
            pytest.param(lambda doc: dict(doc, entries=[[1, 2, 3, 1], [1, 2, 4, 1]]), id="context_twice"),
        ],
    )
    def test_other_shapes_are_refused(self, corrupt):
        doc = build_lut([1, 2, 3, 1, 2, 4], 3).to_dict()
        with pytest.raises(ValueError):
            NGramLUT.from_dict(corrupt(doc))


class TestHeadExtension:
    @settings(max_examples=500, deadline=None)
    @given(
        head=st.lists(st.integers(1, 3), max_size=30),
        tail=st.lists(st.integers(1, 3), max_size=30),
        n=st.integers(2, 4),
    )
    @example(head=[], tail=[1, 2, 1, 2], n=2)
    @example(head=[1, 2, 3], tail=[], n=3)
    @example(head=[1], tail=[2, 1, 3, 1, 2], n=4)  # head shorter than n - 1
    @example(head=[1, 2, 4, 1, 2], tail=[3, 3, 3, 4], n=3)  # (1,2): head's 4 ties the tail's new 3; 3 outnumbers 1, 2, 4
    def test_equals_build_of_whole_region(self, head, tail, n):
        whole = build_lut(head + tail, n)
        extended = build_lut(head + tail, n, count_head(head, n))
        assert extended == whole
        assert list(extended.table) == list(whole.table)

    def test_region_must_start_with_the_head(self):
        with pytest.raises(ValueError):
            build_lut([1, 2, 3, 4], 3, count_head([1, 3], 3))

    def test_head_must_be_counted_for_the_same_n(self):
        with pytest.raises(ValueError):
            build_lut([1, 2, 3, 4], 3, count_head([1, 2], 2))


def _draft(lut, context, n_draft):
    """The drafts of a round that only `lut` drafts, or MISS."""
    chain = exspec._chain((lut,), lut.n - 1, list(context), n_draft, None, None)
    return MISS if chain is MISS else chain[0]


class TestDraftWindow:
    @settings(max_examples=300, deadline=None)
    @given(
        stream=st.lists(st.integers(1, 3), max_size=40),
        n=st.integers(2, 4),
        context=st.lists(st.integers(1, 3), min_size=8, max_size=40),
        n_draft=st.integers(1, 6),
    )
    def test_long_context_drafts_like_its_last_window(self, stream, n, context, n_draft):
        lut = build_lut(stream, n)
        assert _draft(lut, context, n_draft) == _draft(lut, context[-(n - 1):], n_draft)


class TestDraft:
    def test_miss_when_context_absent(self):
        lut = build_lut([1, 2, 3], n=3)
        assert _draft(lut, [8, 9], 4) is MISS

    def test_chained_lookups(self):
        # "schedule a meeting with john" as ids; context ends "...schedule a".
        stream = [10, 11, 12, 13, 14]
        lut = build_lut(stream, n=3)
        assert _draft(lut, [99, 10, 11], 2) == [12, 13]

    def test_filler_after_first_hit(self):
        # First lookup hits, the chained one misses: filler pads to length.
        lut = build_lut([1, 2, 3], n=3)
        drafts = _draft(lut, [1, 2], 3)
        assert drafts[0] == 3
        assert drafts[1:] == [lut.filler, lut.filler]

    def test_full_length_even_with_midway_misses(self):
        lut = build_lut([1, 2, 3, 4], n=3)
        assert len(_draft(lut, [1, 2], 6)) == 6


class TestVerify:
    def test_all_correct(self):
        model = ScriptedModel((1,), (5, 6, 7, 8))
        accepted, corrected = verify(model, [1], [5, 6, 7])
        assert accepted == 3
        assert corrected == 8

    def test_first_wrong(self):
        model = ScriptedModel((1,), (5, 6))
        accepted, corrected = verify(model, [1], [9, 9])
        assert accepted == 0
        assert corrected == 5

    def test_empty_drafts_rejected(self):
        with pytest.raises(ValueError):
            verify(ReferenceModel(), [1], [])

    def test_randomized_against_token_by_token_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            script = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 8)))
            model = ScriptedModel((1,), script)
            drafts = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
            accepted, corrected = verify(model, [1], drafts)
            # Oracle: walk the greedy choice one token at a time.
            ctx = [1]
            expected_accept = 0
            for d in drafts:
                choice = model.greedy_next(ctx)
                if d != choice:
                    assert corrected == choice
                    break
                expected_accept += 1
                ctx.append(d)
            else:
                assert corrected == model.greedy_next(ctx)
            assert accepted == expected_accept


class TestVerifyLeavesContext:
    """Verification appends drafts to the caller's list and cuts them back."""

    def test_after_full_acceptance(self):
        ctx = [1]
        assert verify(ScriptedModel((1,), (5, 6, 7, 8)), ctx, [5, 6, 7]) == (3, 8)
        assert ctx == [1]

    def test_after_early_mismatch(self):
        ctx = [1, 5]
        assert verify(ScriptedModel((1,), (5, 6, 7, 8)), ctx, [6, 9, 9]) == (1, 7)
        assert ctx == [1, 5]

    def test_when_the_target_raises_mid_group(self):
        class Failing(ReferenceModel):
            def next_distribution(self, context):
                if len(context) >= 3:
                    raise RuntimeError("target failed")
                return {4: 1.0}

        ctx = [1]
        with pytest.raises(RuntimeError):
            verify(Failing(), ctx, [4, 4, 4])
        assert ctx == [1]


# Greedy steps a fixture-corpus run takes, counted by wrapping
# `ReferenceModel.greedy_next` the way the benchmark's `lm.greedy_next` span
# does; binding the target and verifying in place must not change them.
FIXTURE_GREEDY_CALLS = {"scripted": 2963, "markov": 10751}


@pytest.mark.parametrize("model", sorted(FIXTURE_GREEDY_CALLS))
def test_greedy_calls_on_fixture_corpus(bundle, plan, monkeypatch, model):
    step = ReferenceModel.greedy_next
    calls = 0

    def counted(self, context):
        nonlocal calls
        calls += 1
        return step(self, context)

    monkeypatch.setattr(ReferenceModel, "greedy_next", counted)
    pipeline.run_queries(bundle, plan, None, pipeline.RunSettings(model=model))
    assert calls == FIXTURE_GREEDY_CALLS[model]


def _verbatim_setup(n=3, draft_len=4):
    """Scripted continuation embedded verbatim in the extraction region.

    Only the final verification round can reject (the chain runs past the
    script's end), so a long enough script pins the acceptance rate high.
    """
    script = list(range(20, 40))
    region = [5, 6] + script + [7, 8]
    prompt = [1, 2, 3]
    model = ScriptedModel(prompt, script)
    lut = build_lut(region, n=n)
    return model, prompt, lut, script


class TestDecode:
    def test_verbatim_script_high_acceptance_and_exact_output(self):
        model, prompt, lut, script = _verbatim_setup()
        out, stats = decode(model, prompt, (lut,), n_draft=4, selective=True, max_tokens=50)
        assert out == script
        assert out == greedy_decode(model, prompt, 50)
        assert stats.accuracy >= 0.9

    def test_disjoint_region_selective_all_fallbacks(self):
        script = [20, 21, 22, 23]
        model = ScriptedModel((1,), script)
        lut = build_lut([50, 51, 52, 53, 54], n=3)
        out, stats = decode(model, [1], (lut,), n_draft=4, selective=True, max_tokens=50)
        assert out == script
        assert stats.fallbacks == len(out)
        assert stats.drafts_generated == 0

    def test_disjoint_region_non_selective_drafts_and_costs_more(self):
        script = [20, 21, 22, 23]
        model = ScriptedModel((1,), script)
        lut = build_lut([50, 51, 52, 53, 54], n=3)
        out_sel, sel = decode(model, [1], (lut,), 4, selective=True, max_tokens=50)
        out_non, non = decode(model, [1], (lut,), 4, selective=False, max_tokens=50)
        assert out_sel == out_non == script
        assert non.drafts_generated > 0
        assert sel.drafts_generated < non.drafts_generated
        assert sel.drafts_accepted == non.drafts_accepted == 0
        # Under the ideal tax the two tie here: every round is one step.
        assert decode_seconds(sel.to_dict(), 1.0, MEASURED_TAX) < decode_seconds(non.to_dict(), 1.0, MEASURED_TAX)

    def test_max_tokens_zero(self):
        model, prompt, lut, _ = _verbatim_setup()
        out, stats = decode(model, prompt, (lut,), 4, True, 0)
        assert out == []
        assert stats.rounds == 0

    def test_truncation_matches_greedy(self):
        model, prompt, lut, script = _verbatim_setup()
        for cap in (1, 2, 3, 5, 7):
            out, _ = decode(model, prompt, (lut,), 4, True, cap)
            assert out == greedy_decode(model, prompt, cap)

    def test_truncated_counts_only_a_decode_cut_at_max_tokens(self):
        model, prompt, lut, script = _verbatim_setup()
        assert decode(model, prompt, (lut,), 4, True, 50)[1].truncated == 0  # the script ends in EOS first
        assert decode(model, prompt, (lut,), 4, True, len(script) - 1)[1].truncated == 1
        # A chain trained on one repeated phrase never reaches EOS from inside it.
        chain = train_markov([[1, 2, 3] * 4], order=2)
        out, stats = decode(chain, [1, 2], (build_lut([1, 2, 3, 1, 2, 3], 3),), 4, True, 12)
        assert out == greedy_decode(chain, [1, 2], 12) and len(out) == 12
        assert stats.truncated == 1
        assert stats.to_dict()["truncated"] == 1

    def test_empty_lut_behaves(self):
        model = ScriptedModel((1,), (5, 6))
        lut = build_lut([], n=3)
        out_sel, _ = decode(model, [1], (lut,), 4, True, 10)
        out_non, _ = decode(model, [1], (lut,), 4, False, 10)
        assert out_sel == out_non == [5, 6]


class TestBackupTable:
    def test_drafts_from_the_backup_only_when_the_prompt_table_misses(self):
        script = [20, 21, 22, 23, 24, 25]
        model = ScriptedModel((1, 2), script)
        backup = build_lut([2, 20, 21, 22, 23, 24, 25], n=2)
        out, stats = decode(model, [1, 2], (build_lut([], n=3), backup), 4, True, 50)
        assert out == script
        assert stats.backup_rounds == stats.rounds == 2
        assert stats.fallbacks == 0
        # A prompt table that hits first keeps the backup out.
        out, stats = decode(model, [1, 2], (build_lut([1, 2, 20, 21, 22, 23, 24, 25], n=3), backup), 4, True, 50)
        assert out == script
        assert stats.backup_rounds == 0

    def test_a_backup_draft_chains_on_the_backup(self):
        # The prompt table knows (1, 2) -> 9 only; the backup drafts the
        # whole continuation, and its filler pads past it.
        model = ScriptedModel((5, 5), (7, 8))
        backup = build_lut([5, 7, 8, 8, 8], n=2)
        assert _draft(backup, [5, 5], 3) == [7, 8, 8]
        out, stats = decode(model, [5, 5], (build_lut([1, 2, 9], n=3), backup), 3, True, 10)
        assert out == [7, 8]
        assert (stats.rounds, stats.backup_rounds, stats.drafts_accepted) == (1, 1, 2)

    def test_a_round_asks_only_the_table_that_kept_it(self):
        first = build_lut([5, 6], n=2)  # 5 -> 6
        second = build_lut([2, 5, 9], n=2)  # 2 -> 5, 5 -> 9; filler 2
        third = build_lut([9, 5, 7], n=2)  # 9 -> 5, 5 -> 7; filler 9
        tables = (first, second, third)
        # The second table keeps a round that starts at 2: after 5 it drafts
        # 9, not the first table's 6, and its own filler where it misses,
        # though the third table knows 9.
        assert exspec._chain(tables, 1, [1, 2], 3, None, None) == ([5, 9, 2], second, 0)
        # Only the third knows 9; after its 5 it drafts 7 where both earlier tables hit.
        assert exspec._chain(tables, 1, [1, 9], 3, None, None) == ([5, 7, 9], third, 0)
        out, stats = decode(ScriptedModel((1, 9), (5, 7, 9)), [1, 9], tables, 3, True, 10)
        assert out == [5, 7, 9]
        assert (stats.rounds, stats.backup_rounds, stats.drafts_accepted) == (1, 1, 3)

    def test_trace_counts(self):
        model, prompt, lut, _ = _verbatim_setup()
        _, stats = decode(model, prompt, (lut, build_lut([3, 20, 21], n=3)), 4, True, 50)
        doc = stats.to_dict()
        assert doc["lut_size"] == len(lut)
        assert doc["backup_rounds"] == stats.backup_rounds

    @settings(max_examples=300, deadline=None)
    @given(
        prompt=st.lists(st.integers(1, 5), min_size=1, max_size=6),
        script=st.lists(st.integers(1, 5), max_size=20),
        region=st.lists(st.integers(1, 5), max_size=30),
        table=st.lists(st.integers(0, 5), max_size=60),
        n=st.integers(2, 4),
        table_n=st.integers(2, 4),
        n_draft=st.integers(1, 6),
        selective=st.booleans(),
        markov=st.booleans(),
        max_tokens=st.integers(0, 30),
    )
    def test_decode_equals_greedy_with_any_backup(
        self, prompt, script, region, table, n, table_n, n_draft, selective, markov, max_tokens
    ):
        model = train_markov([prompt + script, region or [1]], order=2) if markov else ScriptedModel(prompt, script)
        tables = (build_lut(region, n), build_lut(table, table_n))
        out, stats = decode(model, prompt, tables, n_draft, selective, max_tokens)
        assert out == greedy_decode(model, prompt, max_tokens)
        assert 0 <= stats.backup_rounds <= stats.rounds - stats.fallbacks
        assert stats.truncated == (len(out) == max_tokens)


_PLAN_WORDS = "1 2 3 . ; end of plan get_a get_b ( ) = x , when"


def _plan_grammar(words=_PLAN_WORDS, tools=("get_a", "get_b")):
    """A tokenizer over `words` and its plan grammar awaiting `tools`."""
    tok = Tokenizer({w: i for i, w in enumerate(words.split(), start=1)})
    return tok, PlanGrammar.read(tok, 8).awaiting(map(tok.id_of, tools))


def _proposals(grammar, tokens):
    """The grammar's proposal before each token and after the last."""
    state, out = grammar.START, []
    for token in tokens:
        out.append(state[0])
        state = grammar.step(state, token)
    return out + [state[0]]


class TestPlanGrammar:
    def test_dot_after_a_step_number(self):
        tok, grammar = _plan_grammar()
        assert _proposals(grammar, tok.tokenize("1"))[-1] == tok.id_of(".")
        # Steps count from the output's first number.
        assert _proposals(grammar, tok.tokenize("2 . get_a ( ) ; 3"))[-1] == tok.id_of(".")

    def test_end_only_once_every_awaited_tool_is_named(self):
        tok, grammar = _plan_grammar()
        first = tok.tokenize("1 . get_a ( x = get_b ) ;")
        # A tool named only inside the arguments is not a step's call.
        assert _proposals(grammar, first)[-1] == tok.id_of("2")
        second = first + tok.tokenize("2 . get_a ( ) ;")
        assert _proposals(grammar, second)[-1] == tok.id_of("3")
        assert _proposals(grammar, second + tok.tokenize("3 . get_b ( ) ;"))[-1] == tok.id_of("end")
        # A grammar awaiting no tool proposes `end` after the first step.
        assert _proposals(_plan_grammar(tools=())[1], first)[-1] == tok.id_of("end")

    def test_proposes_only_the_format_tokens(self):
        tok, grammar = _plan_grammar()
        plan = tok.tokenize("1 . get_a ( x ) ; 2 . get_b ( when ) ; end of plan")
        expected = [None, ".", *[None] * 5, "2", ".", *[None] * 5, "end", None, None, None]
        assert _proposals(grammar, plan) == [tok.id_of(w) if w else None for w in expected]

    def test_nothing_at_an_empty_output(self):
        _, grammar = _plan_grammar()
        assert grammar.START[0] is None

    def test_silent_after_the_first_token_off_the_format(self):
        tok, grammar = _plan_grammar()
        # The Markov planner continues the query before it starts a plan.
        assert set(_proposals(grammar, tok.tokenize(", when = x . plan 1 . get_a ( ) ;"))) == {None}
        for off in ("1 ,", "1 . get_a ( ) ; 3", "1 . get_a ( ) ; x", "1 . get_a ( ) ; end"):
            tail = tok.tokenize("1 . get_b ( ) ; 2 .")
            assert set(_proposals(grammar, tok.tokenize(off) + tail)[len(tok.tokenize(off)):]) == {None}, off

    def test_a_word_the_vocabulary_lacks_is_never_proposed(self):
        tok, grammar = _plan_grammar(words="1 . ; end get_a get_b ( )")
        assert _proposals(grammar, tok.tokenize("1 . get_a ( ) ;"))[-1] is None  # no id for step 2
        # A tool id that is not one word is not awaited.
        tok, grammar = _plan_grammar(tools=("get_a", "no_such_tool"))
        assert _proposals(grammar, tok.tokenize("1 . get_a ( ) ;"))[-1] == tok.id_of("end")

    def test_reading_the_grammar_allocates_no_id(self, bundle):
        size = bundle.tokenizer.vocab_size
        grammar = PlanGrammar.read(bundle.tokenizer, 10_000)
        grammar.awaiting(map(bundle.tokenizer.id_of, [*bundle.registry.tool_ids(), "no_such_tool", "get a"]))
        assert bundle.tokenizer.vocab_size == size
        assert grammar.steps[1] == bundle.tokenizer.id_of("1") and len(grammar.steps) < 10_000

    def test_a_waiting_state_is_moved_only_by_its_token(self):
        tok, grammar = _plan_grammar()
        semicolon, state, waited = tok.id_of(";"), grammar.START, 0
        for token in tok.tokenize("1 . get_a ( x ) ; 2 . get_b ( when ) ; end of plan"):
            following = grammar.step(state, token)
            if following is state:
                waited += 1
                assert all(grammar.step(state, other) is state for other in range(20) if other != semicolon)
            state = following
        # In each step's body `(`, its argument and `)` wait for its `;`; after `end`, `of` and `plan` wait for no token.
        assert waited == 8 and all(grammar.step(state, other) is state for other in range(20))

    def test_at_most_one_state_step_per_token(self):
        tok, grammar = _plan_grammar()
        steps = []

        class Counting(PlanGrammar):
            def step(self, state, token):
                steps.append(token)
                return super().step(state, token)

        script = tok.tokenize("1 . get_a ( x ) ; 2 . get_b ( when ) ; end of plan")
        model = ScriptedModel([1], script)
        out, stats = decode(model, [1], (build_lut([], 3),), 4, True, 50, grammar=Counting(**vars(grammar)))
        assert out == script
        # Each committed token steps the decode's state once, each chained draft its chain's copy once.
        assert len(steps) <= stats.output_tokens + stats.drafts_generated

    def test_a_chain_drafts_format_tokens_in_a_row(self):
        tok, grammar = _plan_grammar()
        script = tok.tokenize("1 . get_a ( x ) ; 2 . get_b ( when ) ; end of plan")
        out, stats = decode(ScriptedModel([1], script), [1], (build_lut([], 3),), 4, True, 50, grammar=grammar)
        assert out == script
        # With no table to draft from, the grammar drafts `.` after `1`, then
        # `2 .` in one chain after the first `;`, then `end`; the rest falls back.
        assert stats.grammar_drafts == stats.drafts_generated == stats.drafts_accepted == 4
        assert (stats.rounds, stats.fallbacks) == (13, 10)

    def test_decode_drafts_the_format_and_equals_greedy(self):
        tok, grammar = _plan_grammar()
        script = tok.tokenize("1 . get_a ( x ) ; 2 . get_b ( when ) ; end of plan")
        model = ScriptedModel([1], script)
        lut = build_lut(tok.tokenize("get_a ( x ) ; get_b ( when ) ; end of plan"), 3)
        out, without = decode(model, [1], (lut,), 4, True, 50)
        out_g, with_g = decode(model, [1], (lut,), 4, True, 50, grammar=grammar)
        assert out == out_g == script
        assert without.grammar_drafts == 0 < with_g.grammar_drafts == with_g.to_dict()["grammar_drafts"]
        assert (with_g.rounds, with_g.fallbacks) < (without.rounds, without.fallbacks)


class _TableGrammar:
    """A grammar whose state after a token it lists is drawn from its table: any proposals at all.

    The table gives the proposal after each token it lists, and under None
    the one at the start; any other token leaves the state as it is, as a
    plan step's body does.
    """

    def __init__(self, table):
        self.table = table
        self.START = (table.get(None),)

    def step(self, state, token):
        return (self.table[token],) if token in self.table else state


def _small_plan_grammar(plan_ids):
    """A plan grammar whose `.`, `;`, `end`, step numbers 1-2 and awaited tool are `plan_ids`, of one small alphabet."""
    dot, semicolon, end, one, two, tool = plan_ids
    steps = {1: one, 2: two}
    return PlanGrammar(dot, semicolon, end, steps, {v: k for k, v in steps.items()}).awaiting([tool])


@settings(max_examples=300, deadline=None)
@given(
    prompt=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    script=st.lists(st.integers(1, 5), max_size=20),
    region=st.lists(st.integers(1, 5), max_size=30),
    table=st.lists(st.integers(0, 5), max_size=60),
    proposals=st.dictionaries(st.none() | st.integers(0, 5), st.none() | st.integers(0, 5)),
    plan_ids=st.none() | st.lists(st.integers(1, 5), min_size=6, max_size=6),
    n=st.integers(2, 4),
    n_draft=st.integers(1, 6),
    selective=st.booleans(),
    markov=st.booleans(),
    max_tokens=st.integers(0, 30),
)
def test_decode_equals_greedy_with_any_grammar(
    prompt, script, region, table, proposals, plan_ids, n, n_draft, selective, markov, max_tokens
):
    model = train_markov([prompt + script, region or [1]], order=2) if markov else ScriptedModel(prompt, script)
    grammar = _TableGrammar(proposals) if plan_ids is None else _small_plan_grammar(plan_ids)
    tables = (build_lut(region, n), build_lut(table, 3))
    out, stats = decode(model, prompt, tables, n_draft, selective, max_tokens, grammar)
    assert out == greedy_decode(model, prompt, max_tokens)
    assert 0 <= stats.grammar_drafts <= stats.drafts_generated
    assert 0 <= stats.backup_rounds <= stats.rounds - stats.fallbacks


@settings(max_examples=300, deadline=None)
@given(
    prompt=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    script=st.lists(st.integers(1, 5), max_size=20),
    streams=st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=40), st.integers(2, 4)), min_size=1, max_size=3),
    plan_ids=st.none() | st.lists(st.integers(1, 5), min_size=6, max_size=6),
    n_draft=st.integers(1, 6),
    selective=st.booleans(),
    markov=st.booleans(),
    max_tokens=st.integers(0, 30),
)
def test_decode_equals_greedy_with_any_ordered_tables(
    prompt, script, streams, plan_ids, n_draft, selective, markov, max_tokens
):
    corpus_data = [prompt + script, *(stream for stream, _ in streams if stream)]
    model = train_markov(corpus_data, order=2) if markov else ScriptedModel(prompt, script)
    tables = tuple(build_lut(stream, n) for stream, n in streams)
    grammar = None if plan_ids is None else _small_plan_grammar(plan_ids)
    out, stats = decode(model, prompt, tables, n_draft, selective, max_tokens, grammar)
    assert out == greedy_decode(model, prompt, max_tokens)
    # A round kept by a table after the first is a drafting round, and needs a second table.
    assert 0 <= stats.backup_rounds <= stats.rounds - stats.fallbacks
    if len(tables) == 1:
        assert stats.backup_rounds == 0


def _random_models(rng):
    """A mix of scripted and markov targets over a small vocabulary."""
    models = []
    for _ in range(6):
        prompt = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        script = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 20)))
        models.append((ScriptedModel(prompt, script), list(prompt)))
    for order in (1, 2, 3):
        corpus_data = [[rng.randint(1, 9) for _ in range(rng.randint(4, 30))] for _ in range(8)]
        model = train_markov(corpus_data, order=order)
        models.append((model, corpus_data[0][:3]))
    return models


class TestEquivalence:
    def test_decode_equals_greedy_everywhere(self):
        rng = random.Random(101)
        cases = 0
        models = _random_models(rng)
        while cases < 250:
            model, prompt = models[cases % len(models)]
            n = rng.choice([2, 3, 4])
            n_draft = rng.randint(1, 6)
            selective = rng.random() < 0.5
            max_tokens = rng.randint(0, 40)
            region = [rng.randint(1, 9) for _ in range(rng.randint(0, 60))]
            lut = build_lut(region, n=n)
            out, _ = decode(model, prompt, (lut,), n_draft, selective, max_tokens)
            assert out == greedy_decode(model, prompt, max_tokens)
            cases += 1


@pytest.fixture(scope="session")
def per_n_stats(bundle, weaver, oracle_rag):
    """Aggregate decode statistics over the shipped corpus, per table order."""
    from agentaccel import corpus as corpus_mod

    results = {}
    for n in (2, 3, 4):
        gen = acc = 0
        for sample in bundle.test:
            retrieved = oracle_rag.retrieve_tools(sample.query_tokens, 0.5)
            examples = oracle_rag.retrieve_examples(sample.query_tokens, retrieved, 1)
            prompt = weaver.planner_prompt(sample.query_tokens, retrieved, examples)
            script = bundle.tokenizer.tokenize(corpus_mod.render_plan(sample.gt_plan))
            model = ScriptedModel(prompt.tokens, script)
            lut = build_lut(prompt.extraction_region(), n)
            _, stats = decode(model, prompt.tokens, (lut,), 4, True, 160)
            gen += stats.drafts_generated
            acc += stats.drafts_accepted
        results[n] = {"generated": gen, "accepted": acc, "accuracy": acc / gen}
    return results


class TestFixtureDirections:
    def test_accuracy_increases_from_bigram_to_trigram(self, per_n_stats):
        assert per_n_stats[2]["accuracy"] < per_n_stats[3]["accuracy"]

    def test_longer_context_drafts_fewer_tokens(self, per_n_stats):
        assert per_n_stats[4]["generated"] < per_n_stats[3]["generated"]


def test_lut_build_scales_roughly_linearly():
    # Informational timing check with a very loose bound: an 8x longer
    # stream should not take more than ~40x the time of the short one.
    import time

    rng = random.Random(3)
    short = [rng.randint(1, 30) for _ in range(20_000)]
    long = [rng.randint(1, 30) for _ in range(160_000)]
    t0 = time.perf_counter()
    build_lut(short, 3)
    t_short = time.perf_counter() - t0
    t0 = time.perf_counter()
    build_lut(long, 3)
    t_long = time.perf_counter() - t0
    assert t_long < max(40 * t_short, 2.0)

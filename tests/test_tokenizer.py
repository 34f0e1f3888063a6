import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentaccel.tokenizer import EOS_ID, Tokenizer, normalize, split_words

SENTENCES = [
    "schedule a meeting with john tomorrow at 5pm",
    "Send An Email To Maria about the budget review",
    "what is anna's email address?",
    "remind me to water the plants tonight",
    "open my reading list note",
]


def test_empty_input():
    assert Tokenizer().tokenize("") == []


def test_determinism():
    tok = Tokenizer()
    a = tok.tokenize("schedule a meeting")
    b = tok.tokenize("schedule a meeting")
    assert a == b


def test_case_normalization():
    tok = Tokenizer()
    assert tok.tokenize("Schedule A Meeting") == tok.tokenize("schedule a meeting")


def test_distinct_word_count_matches_brute_force():
    # Oracle: count distinct normalized words with an independent pass.
    rng = random.Random(5)
    words = [f"w{idx}" for idx in range(40)]
    sentences = [" ".join(rng.choice(words) for _ in range(rng.randint(3, 9))) for _ in range(50)]
    tok = Tokenizer()
    for s in sentences:
        tok.tokenize(s)
    expected = set()
    for s in sentences:
        expected.update(s.lower().split())
    assert tok.vocab_size == len(expected)


def test_round_trip_up_to_normalization():
    tok = Tokenizer()
    for s in SENTENCES:
        assert tok.detokenize(tok.tokenize(s)) == normalize(s)


@given(st.text(max_size=200))
def test_round_trip_property(text):
    tok = Tokenizer()
    assert tok.detokenize(tok.tokenize(text)) == normalize(text)


def test_punctuation_splits_but_underscore_words_stay_whole():
    tok = Tokenizer()
    ids = tok.tokenize("get_email_address ( name = anna )")
    assert tok.detokenize(ids) == "get_email_address ( name = anna )"
    assert len(tok.tokenize("get_email_address")) == 1


def test_vocabulary_persistence_across_restart(tmp_path):
    tok = Tokenizer()
    first = tok.tokenize("alpha beta gamma , delta")
    path = tmp_path / "vocab.json"
    tok.save(path)
    reloaded = Tokenizer.load(path)
    assert reloaded.tokenize("alpha beta gamma , delta") == first
    # New words extend the vocabulary without disturbing existing ids.
    extended = reloaded.tokenize("alpha epsilon")
    assert extended[0] == first[0]
    assert extended[1] not in first


def test_id_of_reads_one_word_and_allocates_nothing():
    tok = Tokenizer({"end": 3, ".": 7})
    assert (tok.id_of("end"), tok.id_of("."), tok.id_of("12"), tok.id_of("end of")) == (3, 7, None, None)
    assert tok.vocab_size == 2
    assert tok.tokenize("12") == [8]
    assert tok.id_of("12") == 8


def test_eos_id_reserved():
    tok = Tokenizer()
    ids = tok.tokenize("a b c")
    assert EOS_ID not in ids
    with pytest.raises(ValueError):
        Tokenizer({"bad": EOS_ID})


def test_split_words_is_pure():
    assert split_words("Hello, World!") == ["hello", ",", "world", "!"]

"""Deterministic word-level tokenizer with a persistent, append-only vocabulary.

Token identity is the equality unit for everything downstream (prefix
matching, n-gram lookup, decode verification), so the only hard requirements
are determinism and a stable word -> id mapping.  Normalization is documented
and fixed: text is lowercased, words and punctuation marks become individual
tokens, and all whitespace collapses to single spaces on detokenization.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from . import shapes

# Token id 0 is reserved as the end-of-sequence sentinel used by the
# reference models; real words are assigned ids starting at 1.
EOS_ID = 0

_VOCABULARY = shapes.Check(
    shapes.OBJECT,
    lambda doc: shapes.TOKEN_IDS.misfit([*doc.values()]) is None and min(doc.values(), default=0) >= 0,
    "an object mapping each word to a non-negative integer id",
)

# A word is a run of alphanumerics/underscores (tool ids like
# "get_email_address" stay single tokens); anything else that is not
# whitespace becomes a one-character token.
_TOKEN_RE = re.compile(r"[a-z0-9_]+|[^a-z0-9_\s]")


def sequence_hash(tokens) -> str:
    """sha256 over the comma-joined token ids: the KV store's blob names."""
    return hashlib.sha256(",".join(map(str, tokens)).encode()).hexdigest()


def split_words(text: str) -> list[str]:
    """Split normalized text into word/punctuation pieces."""
    return _TOKEN_RE.findall(text.lower())


def normalize(text: str) -> str:
    """The canonical text form a tokenize/detokenize round trip preserves."""
    return " ".join(split_words(text))


class Tokenizer:
    """Maps words to integer ids, allocating new ids on first sight.

    Identical text always yields identical sequences; the vocabulary only
    grows, and persisting/reloading it keeps previously assigned ids stable
    across processes.  `defined_ids` are the ids of the vocabulary it was
    made with: an id allocated later depends on what was tokenized first.
    """

    def __init__(self, vocab: dict[str, int] | None = None):
        self._word_to_id: dict[str, int] = dict(vocab) if vocab else {}
        self._id_to_word: dict[int, str] = {i: w for w, i in self._word_to_id.items()}
        if len(self._id_to_word) != len(self._word_to_id):
            raise ValueError("vocabulary contains duplicate ids")
        if EOS_ID in self._id_to_word:
            raise ValueError(f"token id {EOS_ID} is reserved for end-of-sequence")
        self._next_id = max(self._id_to_word, default=EOS_ID) + 1
        self.defined_ids = frozenset(self._id_to_word)

    @property
    def vocab_size(self) -> int:
        return len(self._word_to_id)

    def id_of(self, word: str) -> int | None:
        """The id of one vocabulary word, or None; unlike `tokenize`, allocates nothing."""
        return self._word_to_id.get(word)

    def tokenize(self, text: str) -> list[int]:
        ids = []
        for word in split_words(text):
            tid = self._word_to_id.get(word)
            if tid is None:
                tid = self._next_id
                self._next_id += 1
                self._word_to_id[word] = tid
                self._id_to_word[tid] = word
            ids.append(tid)
        return ids

    def detokenize(self, tokens) -> str:
        words = []
        for tid in tokens:
            if tid == EOS_ID:
                continue
            word = self._id_to_word.get(tid)
            if word is None:
                raise KeyError(f"unknown token id {tid}")
            words.append(word)
        return " ".join(words)

    def save(self, path) -> None:
        payload = json.dumps(self._word_to_id, sort_keys=True, indent=0)
        Path(path).write_text(payload + "\n")

    @classmethod
    def load(cls, path) -> "Tokenizer":
        where = f"vocabulary {path}"
        doc = shapes.load_json(path, _VOCABULARY, where, ValueError)
        try:
            return cls(doc)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

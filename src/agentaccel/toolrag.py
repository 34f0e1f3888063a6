"""Runtime tool and few-shot example retrieval.

A query is scored against every registered tool; tools at or above the
threshold are kept.  The example database is then filtered down to entries
whose tool sets fall inside the selection and ranked by cosine similarity to
the query embedding.  Everything here is deterministic: the default embedder
is TF-IDF bag-of-words, the default scorer compares the query against
per-tool prototype embeddings, and ties break on ascending example id.
"""

from __future__ import annotations

import numpy as np

from .corpus import QuerySample, ToolRegistry, ToolUseExample
from .tokenizer import Tokenizer, split_words

DEFAULT_TAU = 0.5
DEFAULT_TOP_K = 3


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class TfidfEmbedder:
    """L2-normalized TF-IDF vectors over a fixed fitted vocabulary.

    Words unseen at fit time are ignored, which keeps the dimension stable
    while the tokenizer vocabulary keeps growing.
    """

    def __init__(self, vocab: dict[str, int], idf: np.ndarray):
        self._vocab = vocab
        self._idf = idf

    @classmethod
    def fit(cls, texts: list[str]) -> "TfidfEmbedder":
        if not texts:
            raise ValueError("cannot fit an embedder on an empty corpus")
        vocab: dict[str, int] = {}
        doc_freq: dict[str, int] = {}
        for text in texts:
            words = split_words(text)
            for w in words:
                if w not in vocab:
                    vocab[w] = len(vocab)
            for w in set(words):
                doc_freq[w] = doc_freq.get(w, 0) + 1
        n_docs = len(texts)
        idf = np.zeros(len(vocab))
        for w, dim in vocab.items():
            idf[dim] = np.log((1.0 + n_docs) / (1.0 + doc_freq[w])) + 1.0
        return cls(vocab, idf)

    @property
    def dimension(self) -> int:
        return len(self._vocab)

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension)
        for w in split_words(text):
            dim = self._vocab.get(w)
            if dim is not None:
                vec[dim] += 1.0
        vec *= self._idf
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


class CosineToolScorer:
    """Scores tools by query similarity to a per-tool prototype embedding.

    The prototype is the mean embedding of the examples that use the tool;
    raw cosine in [-1, 1] is squashed to [0, 1].  Tools with no examples
    score 0.
    """

    def __init__(self, registry: ToolRegistry, examples: list[ToolUseExample], embedder, tokenizer: Tokenizer):
        self._embedder = embedder
        self._tokenizer = tokenizer
        self._prototypes: dict[str, np.ndarray] = {}
        for tool_id in registry.tool_ids():
            vecs = [ex.query_embedding for ex in examples if tool_id in ex.tools]
            if vecs:
                self._prototypes[tool_id] = np.mean(np.stack(vecs), axis=0)
        self._all_tools = registry.tool_ids()

    def score(self, query_tokens) -> dict[str, float]:
        query_vec = self._embedder.embed(self._tokenizer.detokenize(query_tokens))
        scores = {}
        for tool_id in self._all_tools:
            proto = self._prototypes.get(tool_id)
            if proto is None:
                scores[tool_id] = 0.0
            else:
                scores[tool_id] = (cosine(query_vec, proto) + 1.0) / 2.0
        return scores


class OracleToolScorer:
    """Ground-truth passthrough scorer used for controlled experiments.

    A query is looked up in `samples`, the last of equal queries winning.
    """

    def __init__(self, registry: ToolRegistry, samples: list[QuerySample]):
        self._all_tools = registry.tool_ids()
        self._truth = {tuple(s.query_tokens): s.gt_tools for s in samples}

    def score(self, query_tokens) -> dict[str, float]:
        truth = self._truth.get(tuple(query_tokens), frozenset())
        return {t: (1.0 if t in truth else 0.0) for t in self._all_tools}


class ToolRag:
    """Bundles the embedder, scorer, and example database behind one front."""

    def __init__(self, examples: list[ToolUseExample], embedder, scorer, tokenizer: Tokenizer):
        self.examples = list(examples)
        self.embedder = embedder
        self.scorer = scorer
        self.tokenizer = tokenizer

    def retrieve_tools(self, query_tokens, tau: float = DEFAULT_TAU) -> set[str]:
        """Tools whose score reaches the threshold; may be empty."""
        scores = self.scorer.score(query_tokens)
        return {tool_id for tool_id, s in scores.items() if s >= tau}

    def retrieve_examples(self, query_tokens, selected: set[str], k: int = DEFAULT_TOP_K) -> list[ToolUseExample]:
        """Top-k eligible examples by descending cosine similarity.

        Eligible means the example's tool set is a subset of `selected`.
        Equal similarity breaks ties by ascending example id.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0:
            return []
        query_vec = self.embedder.embed(self.tokenizer.detokenize(query_tokens))
        selected = set(selected)
        eligible = [ex for ex in self.examples if ex.tools <= selected]
        ranked = sorted(eligible, key=lambda ex: (-cosine(query_vec, ex.query_embedding), ex.id))
        return ranked[:k]

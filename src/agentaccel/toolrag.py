"""Runtime tool and few-shot example retrieval.

A query is scored against every registered tool; tools at or above the
threshold are kept.  The example database is then filtered down to entries
whose tool sets fall inside the selection and ranked by cosine similarity to
the query embedding.  Everything here is deterministic: the default embedder
is TF-IDF bag-of-words, the default scorer compares the query against
per-tool prototype embeddings, and ties break on ascending example id.  A
query is embedded from its token ids.  `ToolRag.top_examples` ranks many
queries at once for `build-plan`, with the same arithmetic deciding every
close call.
"""

from __future__ import annotations

import numpy as np

from .corpus import QuerySample, ToolRegistry, ToolUseExample
from .tokenizer import EOS_ID, Tokenizer, split_words

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

    @property
    def idf(self) -> np.ndarray:
        return self._idf

    def embed(self, text: str) -> np.ndarray:
        return self.embed_dims(np.array([self._vocab.get(w, -1) for w in split_words(text)], dtype=np.intp))

    def token_dims(self, tokenizer: Tokenizer) -> np.ndarray:
        """The dimension of each id `tokenizer` has allocated, indexed by id; -1 for a word unseen at fit time.

        For the ids `tokenize` produces, `embed_dims(token_dims(tok)[tokens])`
        is `embed(tok.detokenize(tokens))` bit for bit: each id stands for
        one word, which is its own split.
        """
        dims = np.full(tokenizer.next_id, -1, dtype=np.intp)
        for word, dim in self._vocab.items():
            tid = tokenizer.id_of(word)
            if tid is not None:
                dims[tid] = dim
        return dims

    def embed_dims(self, dims: np.ndarray) -> np.ndarray:
        """The vector of the words of `dims` (their dimensions, -1 for a word unseen at fit time)."""
        vec = np.bincount(dims[dims >= 0], minlength=self.dimension).astype(float)
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

    def __init__(self, registry: ToolRegistry, examples: list[ToolUseExample]):
        self._prototypes: dict[str, np.ndarray] = {}
        for tool_id in registry.tool_ids():
            vecs = [ex.query_embedding for ex in examples if tool_id in ex.tools]
            if vecs:
                self._prototypes[tool_id] = np.mean(np.stack(vecs), axis=0)
        self._all_tools = registry.tool_ids()

    def score(self, query_tokens, embed_query) -> dict[str, float]:
        query_vec = embed_query(query_tokens)
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

    def score(self, query_tokens, embed_query) -> dict[str, float]:
        truth = self._truth.get(tuple(query_tokens), frozenset())
        return {t: (1.0 if t in truth else 0.0) for t in self._all_tools}


def _ranking(query_vec: np.ndarray):
    """The sort key of examples for a query: descending cosine similarity, ties by ascending example id."""
    return lambda ex: (-cosine(query_vec, ex.query_embedding), ex.id)


# Screening scores and the cosines they stand in for round apart by a few
# ulps of the best score; one this far below the best is below it either way.
SCREEN_MARGIN = 1e-9


class ToolRag:
    """Bundles the TF-IDF embedder, scorer, and example database behind one front; scorers read `embed_query`."""

    def __init__(self, examples: list[ToolUseExample], embedder: TfidfEmbedder, scorer, tokenizer: Tokenizer):
        self.examples = list(examples)
        self.embedder = embedder
        self.scorer = scorer
        self.tokenizer = tokenizer
        self._last_query = None  # (query tokens, embedding) of the query embedded last
        self._dims = np.empty(0, dtype=np.intp)  # `embedder.token_dims` of the tokenizer, rebuilt once it allocates past it

    def _token_dims(self, top_id: int) -> np.ndarray:
        if top_id >= len(self._dims):
            self._dims = self.embedder.token_dims(self.tokenizer)
        return self._dims

    def embed_query(self, query_tokens) -> np.ndarray:
        """The query's embedding, kept for the last query: scoring and ranking both read it."""
        tokens = tuple(query_tokens)
        last = self._last_query
        if last is None or last[0] != tokens:
            dims = self._token_dims(max(tokens, default=0))[np.array(tokens, dtype=np.intp)]
            last = self._last_query = tokens, self.embedder.embed_dims(dims)
        return last[1]

    def retrieve_tools(self, query_tokens, tau: float = DEFAULT_TAU) -> set[str]:
        """Tools whose score reaches the threshold; may be empty."""
        scores = self.scorer.score(query_tokens, self.embed_query)
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
        query_vec = self.embed_query(query_tokens)
        selected = set(selected)
        eligible = [ex for ex in self.examples if ex.tools <= selected]
        return sorted(eligible, key=_ranking(query_vec))[:k]

    def top_examples(self, samples) -> list[ToolUseExample | None]:
        """Each sample's `retrieve_examples(query_tokens, gt_tools, 1)` example, or None where none is eligible.

        The samples of one tool set are screened as one block.  An eligible
        example's screening score is the sum, over the query's tokens, of its
        unit embedding times the token's idf: its cosine with the query times
        the query's unnormalized length, up to rounding.  TF-IDF terms are
        non-negative, so the rounding is a few ulps of the score, and an
        example screened more than SCREEN_MARGIN of the best score below the
        best ranks below it.  Where more than one example screens within that margin, their
        `cosine` with the query's embedding decides among them, as
        `retrieve_examples` ranks them.
        """
        dimension = self.embedder.dimension
        dims = self.embedder.token_dims(self.tokenizer)
        dims[dims < 0] = dimension  # a word unseen at fit time scores in a column of zeros
        embeddings = np.array([ex.query_embedding for ex in self.examples]).reshape(len(self.examples), dimension)
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        weights = np.zeros((len(self.examples), dimension + 1))
        np.divide(embeddings * self.embedder.idf, norms, out=weights[:, :dimension], where=norms > 0)
        using: dict[str, list[int]] = {}  # tool -> rows of the examples that use it
        for row, ex in enumerate(self.examples):
            for tool in ex.tools:
                using.setdefault(tool, []).append(row)
        by_tools: dict[frozenset[str], list[int]] = {}
        for i, sample in enumerate(samples):
            by_tools.setdefault(sample.gt_tools, []).append(i)

        top: list[ToolUseExample | None] = [None] * len(samples)
        for tools, members in by_tools.items():
            rows = sorted({row for tool in tools for row in using.get(tool, ())})
            rows = [row for row in rows if self.examples[row].tools <= tools]
            eligible = [self.examples[row] for row in rows]
            if len(eligible) < 2:
                for i in members:
                    top[i] = eligible[0] if eligible else None
                continue
            # Each query's tokens follow an EOS, which no embedding holds, so that no query is empty.
            flat, starts = [], []
            for i in members:
                starts.append(len(flat))
                flat.append(EOS_ID)
                flat.extend(samples[i].query_tokens)
            columns = dims[np.array(flat, dtype=np.intp)]
            scores = np.add.reduceat(weights[rows].take(columns, axis=1), starts, axis=1)
            for i, first in zip(members, scores.argmax(axis=0).tolist()):
                top[i] = eligible[first]
            near = scores >= scores.max(axis=0) * (1.0 - SCREEN_MARGIN)
            for col in np.flatnonzero(near.sum(axis=0) > 1).tolist():
                candidates = [ex for ex, close in zip(eligible, near[:, col]) if close]
                top[members[col]] = min(candidates, key=_ranking(self.embed_query(samples[members[col]].query_tokens)))
        return top

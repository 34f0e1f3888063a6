"""Deterministic reference models for exact verification of decoding.

Real weights never run in this package.  ScriptedModel replays a fixed
continuation of one prompt and MarkovModel is a count-based n-gram chain,
both fully deterministic, so "speculative output equals greedy output" can
be asserted token for token.

Decoding is greedy throughout: the next token is the argmax of the model's
distribution, with ties broken toward the lowest token id, and token id 0 is
the end-of-sequence sentinel.  The models only choose tokens; what a decode
costs is priced by `agentaccel.simulator` from the round counts.

`ReferenceModel.bind(prompt)` gives a decode its per-prompt state: a model
valid for every context that extends the prompt.  ScriptedModel checks there,
once, that the prompt extends its own, so a bound step reads only the tokens
past it (the model's own prompt object needs no check); the Markov step needs
no such state and binds to itself.
`greedy_decode` never binds and stays the oracle that speculative output is
checked against.
"""

from __future__ import annotations

from collections import Counter

from .tokenizer import EOS_ID


def _lowest_argmax(dist: dict[int, float]) -> int:
    """The most probable token, ties broken toward the lowest id; EOS if empty."""
    if not dist:
        return EOS_ID
    best_p = max(dist.values())
    return min(tok for tok, p in dist.items() if p == best_p)


class ReferenceModel:
    """Shared behavior: greedy argmax choice."""

    def next_distribution(self, context) -> dict[int, float]:
        raise NotImplementedError

    def bind(self, prompt) -> "ReferenceModel":
        """This model's greedy step for contexts that extend `prompt`.

        A decode binds once and steps the result, which may keep state
        resolved from the prompt; contexts not extending `prompt` are
        outside its contract.  Here there is no such state: `self`.
        """
        return self

    def greedy_next(self, context) -> int:
        return self._greedy_choice(context)

    def _greedy_choice(self, context) -> int:
        """Argmax of `next_distribution`; a model with an exact shortcut overrides this."""
        return _lowest_argmax(self.next_distribution(context))


class ScriptedModel(ReferenceModel):
    """Puts full probability mass on a scripted continuation of one prompt.

    A context that does not extend the prompt, has left the script or has
    run past its end gets end-of-sequence.
    """

    def __init__(self, prompt, script):
        self.prompt = tuple(prompt)
        self.script = tuple(script)

    def next_distribution(self, context) -> dict[int, float]:
        context = tuple(context)
        head = len(self.prompt)
        pos = len(context) - head
        if context[:head] != self.prompt or pos >= len(self.script) or context[head:] != self.script[:pos]:
            return {EOS_ID: 1.0}
        return {self.script[pos]: 1.0}

    def bind(self, prompt) -> ReferenceModel:
        """A step reading only the tokens past the model's prompt, checked once
        to hold for `prompt` (unless it is that prompt); `self` when `prompt`
        does not extend the model's."""
        if prompt is not self.prompt and tuple(prompt[: len(self.prompt)]) != self.prompt:
            return self
        return _BoundScript(self)


class _BoundScript(ReferenceModel):
    """A ScriptedModel bound to a prompt that extends its own.

    A step compares only the tokens past the model's prompt against the
    script.
    """

    def __init__(self, model: ScriptedModel):
        self._head = len(model.prompt)
        self._script = model.script

    def _greedy_choice(self, context) -> int:
        pos = len(context) - self._head
        if pos >= len(self._script) or tuple(context[self._head:]) != self._script[:pos]:
            return EOS_ID
        return self._script[pos]


class MarkovModel(ReferenceModel):
    """Order-m count chain over the training vocabulary.

    Unseen (or too-short) contexts back off to the order-0 unigram
    distribution, so the chain is total.  Greedy decoding need not reach
    the end-of-sequence counts appended during training: the argmax chain
    can cycle, so a decode is bounded by its `max_tokens`.

    The greedy step is a table lookup: the argmax successor of every context
    is found once here, and `next_distribution` stays as its oracle.
    """

    def __init__(self, order: int, counts, unigram, vocab):
        self.order = order
        self.counts = counts  # dict[tuple, Counter]
        self.unigram = unigram  # Counter
        self.vocab = tuple(sorted(vocab))
        members = set(self.vocab)
        self._argmax = {key: self._counter_argmax(counter, members) for key, counter in counts.items() if counter}
        self._fallback = _lowest_argmax(self._distribution(unigram))

    def _counter_argmax(self, counter: Counter, members: set[int]) -> int:
        """Lowest-id argmax of `_distribution(counter)` without building it.

        Every count shares one total, so the most probable tokens are those
        with the highest count.  A positive top count under a positive total
        also beats every vocabulary token the counter lacks; any other
        counter goes through the distribution itself.
        """
        seen = [(count, tok) for tok, count in counter.items() if tok in members]
        top = max((count for count, _ in seen), default=0)
        if top > 0 and sum(counter.values()) > 0:
            return min(tok for count, tok in seen if count == top)
        return _lowest_argmax(self._distribution(counter))

    def _greedy_choice(self, context) -> int:
        if len(context) >= self.order:
            tok = self._argmax.get(tuple(context[-self.order:]))
            if tok is not None:
                return tok
        return self._fallback

    def _distribution(self, counter: Counter) -> dict[int, float]:
        total = sum(counter.values())
        if total <= 0:
            return {tok: 1.0 / len(self.vocab) for tok in self.vocab}
        return {tok: counter.get(tok, 0) / total for tok in self.vocab}

    def next_distribution(self, context) -> dict[int, float]:
        context = tuple(context)
        if len(context) >= self.order:
            key = context[-self.order:]
            counter = self.counts.get(key)
            if counter:
                return self._distribution(counter)
        return self._distribution(self.unigram)


def train_markov(corpus, order: int) -> MarkovModel:
    """Count context -> successor transitions over a corpus of sequences.

    Each sequence is terminated with the end-of-sequence token before
    counting, so the chain learns to stop.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if not corpus:
        raise ValueError("corpus must be non-empty")
    counts: dict[tuple[int, ...], Counter] = {}
    unigram: Counter = Counter()
    vocab: set[int] = {EOS_ID}
    for seq in corpus:
        seq = list(seq) + [EOS_ID]
        vocab.update(seq)
        for tok in seq:
            unigram[tok] += 1
        for i in range(order, len(seq)):
            key = tuple(seq[i - order: i])
            counts.setdefault(key, Counter())[seq[i]] += 1
    return MarkovModel(order=order, counts=counts, unigram=unigram, vocab=vocab)


def greedy_decode(model: ReferenceModel, prompt, max_tokens: int) -> list[int]:
    """Plain autoregressive argmax decoding, the ground truth for all modes.

    The model is stepped unbound, so this is also the oracle for `bind`.
    """
    if max_tokens < 0:
        raise ValueError("max_tokens must be non-negative")
    context = list(prompt)
    out: list[int] = []
    while len(out) < max_tokens:
        tok = model.greedy_next(context)
        if tok == EOS_ID:
            break
        out.append(tok)
        context.append(tok)
    return out

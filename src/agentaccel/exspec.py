"""Lookup-table speculative decoding with selective fallback.

The draft model is an n-gram table built on the fly from a designated
region of the prompt (few-shot examples plus the user query by default).
Draft generation is a chain of constant-time lookups; the target model then
verifies a whole draft group in one pass.  Because verification only ever
commits the target's own greedy choices, the decoded output is token-level
identical to plain autoregressive decoding in every mode.

Selective mode consults the table before drafting: if the current context
misses, the round degenerates to a single autoregressive step instead of
paying a multi-token verification pass that would likely reject everything.

Decoding counts and does not price: `DecodeStats` records rounds, fallbacks
and drafts, and `simulator.decode_seconds` turns those counts into modeled
time under a tax curve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .lm import ReferenceModel
from .tokenizer import EOS_ID

DEFAULT_N = 3
DEFAULT_DRAFT_LEN = 4


@dataclass(frozen=True)
class NGramLUT:
    """Maps each (n-1)-token context to its most frequent successor.

    Ties break toward the successor whose pair occurred earliest in the
    extraction stream.  `filler` is the globally most frequent token of the
    stream, emitted for in-group lookup misses after the first hit.
    """

    n: int
    table: dict[tuple[int, ...], tuple[int, int]]  # context -> (token, frequency)
    filler: int
    source_token_count: int

    def lookup(self, context) -> int | None:
        if len(context) < self.n - 1:
            return None
        hit = self.table.get(tuple(context[-(self.n - 1):]))
        return hit[0] if hit else None

    def __len__(self) -> int:
        return len(self.table)


def build_lut(extraction_region, n: int = DEFAULT_N) -> NGramLUT:
    """One counting pass over the stream's n-token windows.

    Counters keep first-occurrence order, so taking a successor only on a
    strictly higher count keeps the earliest one on ties, and likewise for
    the filler.  Streams shorter than n produce an empty (always-missing)
    table, which is valid: decoding then falls back to plain autoregressive
    steps.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    stream = list(extraction_region)
    table: dict[tuple[int, ...], tuple[int, int]] = {}
    for gram, count in Counter(zip(*(stream[i:] for i in range(n)))).items():
        key = gram[:-1]
        best = table.get(key)
        if best is None or count > best[1]:
            table[key] = (gram[-1], count)

    filler = EOS_ID
    if stream:
        tok_counts = Counter(stream)
        filler = max(tok_counts, key=tok_counts.__getitem__)
    return NGramLUT(n=n, table=table, filler=filler, source_token_count=len(stream))


MISS = None


def draft(lut: NGramLUT, context, n_draft: int) -> list[int] | None:
    """Up to `n_draft` chained draft tokens, or MISS if the first lookup fails.

    Once the first lookup hits, later misses emit the filler token and the
    chain keeps going to full length; verification weeds out bad guesses.
    """
    if n_draft < 1:
        raise ValueError("n_draft must be at least 1")
    first = lut.lookup(context)
    if first is None:
        return MISS
    # Lookups only read the last n-1 tokens, so chain on that window alone.
    ctx = list(context[-(lut.n - 1):])
    drafts = [first]
    ctx.append(first)
    while len(drafts) < n_draft:
        nxt = lut.lookup(ctx)
        if nxt is None:
            nxt = lut.filler
        drafts.append(nxt)
        ctx.append(nxt)
    return drafts


def verify(target: ReferenceModel, context, drafts) -> tuple[int, int]:
    """Greedy verification of a draft group.

    Walks the drafts against the target's greedy choices on the growing
    context; the first mismatch discards that draft and everything after it.
    Returns (accepted_count, corrected_token) where the corrected token is
    the target's choice at the first mismatch, or the next token after full
    acceptance.

    `context` is a list that the accepted drafts are appended to while
    verifying; it is cut back to its length on entry before returning.
    """
    if not drafts:
        raise ValueError("drafts must be non-empty")
    size = len(context)
    try:
        for d in drafts:
            choice = target.greedy_next(context)
            if d != choice:
                return len(context) - size, choice
            context.append(d)
        return len(drafts), target.greedy_next(context)
    finally:
        del context[size:]


@dataclass
class DecodeStats:
    drafts_generated: int = 0
    drafts_accepted: int = 0
    fallbacks: int = 0
    rounds: int = 0
    output_tokens: int = 0
    selective: bool = True
    draft_len: int = DEFAULT_DRAFT_LEN
    lut_size: int = 0

    @property
    def accuracy(self) -> float:
        if self.drafts_generated == 0:
            return 0.0
        return self.drafts_accepted / self.drafts_generated

    def to_dict(self) -> dict:
        return {
            "drafts_generated": self.drafts_generated,
            "drafts_accepted": self.drafts_accepted,
            "fallbacks": self.fallbacks,
            "rounds": self.rounds,
            "output_tokens": self.output_tokens,
            "selective": self.selective,
            "draft_len": self.draft_len,
            "accuracy": self.accuracy,
        }


def decode(
    target: ReferenceModel,
    prompt,
    lut: NGramLUT,
    n_draft: int = DEFAULT_DRAFT_LEN,
    selective: bool = True,
    max_tokens: int = 256,
) -> tuple[list[int], DecodeStats]:
    """Speculative decoding loop; output always equals greedy_decode.

    The target is bound to the prompt once (`ReferenceModel.bind`) and every
    step of the loop goes to the bound model.  In selective mode a
    first-lookup miss costs one plain step.  In non-selective mode every
    round drafts (fillers on a miss) and pays the full verification pass,
    which is what makes the two modes comparable on cost while identical on
    output.
    """
    if max_tokens < 0:
        raise ValueError("max_tokens must be non-negative")
    if n_draft < 1:
        raise ValueError("n_draft must be at least 1")
    stats = DecodeStats(selective=selective, draft_len=n_draft, lut_size=len(lut))
    target = target.bind(prompt)
    context = list(prompt)
    out: list[int] = []
    done = False
    while not done and len(out) < max_tokens:
        drafts = draft(lut, context, n_draft)
        if drafts is MISS and selective:
            tok = target.greedy_next(context)
            if tok == EOS_ID:
                break
            # A fallback event is an output token produced autoregressively;
            # the terminal end-of-sequence probe above is not one.
            stats.rounds += 1
            stats.fallbacks += 1
            out.append(tok)
            context.append(tok)
            continue
        if drafts is MISS:
            drafts = [lut.filler] * n_draft
        accepted, corrected = verify(target, context, drafts)
        emit = drafts[:accepted] + [corrected]
        if emit[0] == EOS_ID:
            # The pass only discovered the end of the sequence; like the
            # baseline's terminal probe it contributes no output and is
            # left out of the per-round accounting.
            break
        stats.rounds += 1
        stats.drafts_generated += len(drafts)
        stats.drafts_accepted += accepted
        for tok in emit:
            if tok == EOS_ID:
                done = True
                break
            out.append(tok)
            context.append(tok)
            if len(out) >= max_tokens:
                break
    stats.output_tokens = len(out)
    return out, stats

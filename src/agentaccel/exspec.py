"""Lookup-table speculative decoding with selective fallback.

The draft model is an n-gram table built on the fly from a designated
region of the prompt (few-shot examples plus the user query by default).
Draft generation is a chain of constant-time lookups; the target model then
verifies a whole draft group in one pass.  Because verification only ever
commits the target's own greedy choices, the decoded output is token-level
identical to plain autoregressive decoding in every mode.

Selective mode consults the tables before drafting: if the current context
misses, the round degenerates to a single autoregressive step instead of
paying a multi-token verification pass that would likely reject everything.
A decode drafts from an ordered tuple of tables, the first that hits keeping
the round: the planner's are its prompt's table, then one counted offline
over the train split's plans and shipped in the plan.  The planner's decode
also has a `PlanGrammar`, asked before any table at every draft position: a
state machine over the output that drafts the plan format's step numbers,
`.` and `end`.

Decoding counts and does not price: `DecodeStats` records rounds, fallbacks
and drafts, and `simulator.decode_seconds` turns those counts into modeled
time under a tax curve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

from . import shapes
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
        # Every key holds n-1 tokens, so a shorter context finds none.
        hit = self.table.get(tuple(context[-(self.n - 1):]))
        return hit[0] if hit else None

    def __len__(self) -> int:
        return len(self.table)

    def to_dict(self) -> dict:
        """A JSON document of the table: each entry is `[*context, token, frequency]`."""
        return {
            "n": self.n,
            "filler": self.filler,
            "source_token_count": self.source_token_count,
            "entries": [[*key, tok, count] for key, (tok, count) in self.table.items()],
        }

    @classmethod
    def from_dict(cls, doc, where: str = "draft table", error=ValueError) -> "NGramLUT":
        """The table of a `to_dict` document; a document of another shape raises `error` naming `where`."""
        shapes.check(doc, _TABLE, where, error)
        n, entries = doc["n"], doc["entries"]
        if any(len(e) != n + 1 for e in entries):
            raise error(f"{where} field 'entries' is not a list of {n - 1} context ids, a token id and a count each")
        table = {tuple(e[:-2]): (e[-2], e[-1]) for e in entries}
        if len(table) != len(entries):
            raise error(f"{where} field 'entries' lists a context twice")
        return cls(n=n, table=table, filler=doc["filler"], source_token_count=doc["source_token_count"])


_ENTRY = shapes.Check(
    shapes.TOKEN_IDS, lambda e: len(e) >= 3 and min(e) >= 0 and e[-1] > 0, "a list of context ids, a token id and a positive count"
)
_TABLE = shapes.Object(
    {"n": shapes.Check(shapes.INT, lambda n: n >= 2, "an integer of at least 2"), "filler": shapes.COUNT}
    | {"source_token_count": shapes.COUNT, "entries": shapes.ListOf(_ENTRY)}
)


@dataclass(frozen=True)
class LutHead:
    """The counts of a stream that many extraction regions start with.

    `build_lut(region, n, head)` counts only the n-grams that end past the
    head and merges them into these counts, so a head shared by every query
    of a run is counted once.  `successors` keeps each context's successors
    in first-occurrence order and `ranks` each token's first-occurrence
    index: the tie-breaks of `build_lut` read nothing else.
    """

    n: int
    tokens: list[int]
    table: dict[tuple[int, ...], tuple[int, int]]
    successors: dict[tuple[int, ...], list[tuple[int, int]]]
    token_counts: Counter
    ranks: dict[int, int]
    filler: int


def _gram_counts(stream: list[int], n: int) -> Counter:
    """Counts of the stream's n-token windows, in first-occurrence order."""
    return Counter(zip(*(stream[i:] for i in range(n))))


def _best(candidates, best=None):
    """The `(token, count)` pair of highest count, the earliest of equals."""
    for pair in candidates:
        if best is None or pair[1] > best[1]:
            best = pair
    return best


def _filler(token_counts: Counter) -> int:
    """The most frequent token, the earliest of equals; EOS for no tokens."""
    return max(token_counts, key=token_counts.__getitem__) if token_counts else EOS_ID


def count_head(head, n: int = DEFAULT_N) -> LutHead:
    """Counts of `head` for `build_lut` to extend."""
    if n < 2:
        raise ValueError("n must be at least 2")
    tokens = list(head)
    successors: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for gram, count in _gram_counts(tokens, n).items():
        successors.setdefault(gram[:-1], []).append((gram[-1], count))
    token_counts = Counter(tokens)
    return LutHead(
        n=n,
        tokens=tokens,
        table={key: _best(pairs) for key, pairs in successors.items()},
        successors=successors,
        token_counts=token_counts,
        ranks={tok: rank for rank, tok in enumerate(token_counts)},
        filler=_filler(token_counts),
    )


def build_lut(
    extraction_region, n: int = DEFAULT_N, head: LutHead | None = None, defined: frozenset | None = None
) -> NGramLUT:
    """One counting pass over the stream's n-token windows.

    Counters keep first-occurrence order, so taking a successor only on a
    strictly higher count keeps the earliest one on ties, and likewise for
    the filler.  Streams shorter than n produce an empty (always-missing)
    table, which is valid: decoding then falls back to plain autoregressive
    steps.

    With a `head` from `count_head`, the region must start with the head's
    tokens, and only what follows them is counted; the table is the one the
    whole region gives.

    `defined` (read only without a head) limits the table to those tokens:
    a window holding any other token is not counted, nor is that token a
    filler.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    stream = list(extraction_region)
    if head is not None:
        return _extend_head(head, stream, n)
    grams = _gram_counts(stream, n).items()
    if defined is not None:
        grams = [(gram, count) for gram, count in grams if defined.issuperset(gram)]
    table: dict[tuple[int, ...], tuple[int, int]] = {}
    for gram, count in grams:
        key = gram[:-1]
        best = table.get(key)
        if best is None or count > best[1]:
            table[key] = (gram[-1], count)
    tokens = Counter(stream if defined is None else filter(defined.__contains__, stream))
    return NGramLUT(n=n, table=table, filler=_filler(tokens), source_token_count=len(stream))


def _extend_head(head: LutHead, stream: list[int], n: int) -> NGramLUT:
    """`build_lut(stream, n)` from the head's counts and the windows that end past it.

    A context's head successors occur before any new one, so they are
    ranked first; the filler is the head's filler or a token of the tail.
    """
    if head.n != n:
        raise ValueError(f"head counted for n={head.n}, not n={n}")
    size = len(head.tokens)
    if stream[:size] != head.tokens:
        raise ValueError("extraction region does not start with the head")

    new: dict[tuple[int, ...], dict[int, int]] = {}
    for gram, count in _gram_counts(stream[max(size - n + 1, 0):], n).items():
        new.setdefault(gram[:-1], {})[gram[-1]] = count
    table = dict(head.table)
    for key, fresh in new.items():
        known = [(tok, count + fresh.pop(tok, 0)) for tok, count in head.successors.get(key, ())]
        table[key] = _best(fresh.items(), _best(known))

    tail_counts = Counter(stream[size:])
    candidates = list(tail_counts) + ([head.filler] if size else [])
    tail_ranks = {tok: size + rank for rank, tok in enumerate(tail_counts)}
    filler = min(
        candidates,
        key=lambda t: (-head.token_counts[t] - tail_counts[t], head.ranks.get(t, tail_ranks.get(t))),
        default=EOS_ID,
    )
    return NGramLUT(n=n, table=table, filler=filler, source_token_count=len(stream))


# The phases of a `PlanGrammar` state: at an empty output, after a step
# number, after its `.` (the step's call is next), inside the step, after its `;`.
_START, _NUMBER, _CALL, _BODY, _SEMICOLON = range(5)
# The state after `end` or a token off the format: silent for the rest of the decode.
_DONE = (None, -1, 0, 0)


@dataclass
class PlanGrammar:
    """Drafts the fixed tokens of `corpus.render_plan`'s format, `1 . tool ( … ) ; 2 . … ; end of plan`.

    A state is a `(proposal, phase, k, named)` tuple read from the output so
    far.  `proposal` is the token the format fixes next, or None.  `k` is
    the last step number, counted from the output's first token, and
    `named` has the bit of every awaited tool a step has called.

    After step number k the grammar proposes `.`; after a step's `;` it
    proposes step number k + 1 while an awaited tool is unnamed, and `end`
    once every one is.  It proposes nothing at an empty output, after
    `end`, or ever again once a token leaves the format.  `step(state,
    token)` is O(1) and returns a new state, so a draft chain steps a copy
    and undoes nothing.

    Every id is read from a vocabulary without allocating one: a step number
    it lacks is never proposed, and a tool whose id is not one of its words
    is not awaited.
    """

    dot: int | None
    semicolon: int | None
    end: int | None
    steps: dict[int, int]  # step number -> its id
    numbers: dict[int, int]  # id -> the step number
    tools: dict[int, int] = field(default_factory=dict)  # the id of each awaited tool -> its bit
    every_tool: int = 0  # the bits of all awaited tools

    START: ClassVar[tuple] = (None, _START, 0, 0)

    @classmethod
    def read(cls, tokenizer, max_steps: int) -> "PlanGrammar":
        """The format's ids in `tokenizer`'s vocabulary, step numbers 1 to `max_steps`, awaiting no tool."""
        steps = {k: tid for k in range(1, max_steps + 1) if (tid := tokenizer.id_of(str(k))) is not None}
        return cls(
            dot=tokenizer.id_of("."),
            semicolon=tokenizer.id_of(";"),
            end=tokenizer.id_of("end"),
            steps=steps,
            numbers={tid: k for k, tid in steps.items()},
        )

    def awaiting(self, tool_ids) -> "PlanGrammar":
        """This grammar awaiting the tools of these ids; a None id is skipped."""
        ids = set(tool_ids)
        ids.discard(None)
        tools = {tid: 1 << bit for bit, tid in enumerate(ids)}
        return type(self)(self.dot, self.semicolon, self.end, self.steps, self.numbers, tools, (1 << len(tools)) - 1)

    def step(self, state, token: int) -> tuple:
        """The state after `token`."""
        _, phase, k, named = state
        if phase == _BODY:
            # Most tokens fall inside a step, which only its `;` ends.
            if token != self.semicolon:
                return state
            following = self.end if named == self.every_tool else self.steps.get(k + 1)
            return following, _SEMICOLON, k, named
        if phase == _CALL:
            return None, _BODY, k, named | self.tools.get(token, 0)
        if phase == _NUMBER:
            return (None, _CALL, k, named) if token == self.dot else _DONE
        if phase == _SEMICOLON and token == self.steps.get(k + 1):
            return self.dot, _NUMBER, k + 1, named
        if phase == _START and token in self.numbers:
            return self.dot, _NUMBER, self.numbers[token], 0
        return _DONE


MISS = None


def _chain(tables: tuple[NGramLUT, ...], window: int, context, n_draft: int, grammar: PlanGrammar | None, state):
    """A round's drafts, the table that kept it (or None) and how many the grammar proposed; MISS if nothing drafts the first.

    At each position the grammar, in `state` stepped by the chain, proposes
    first.  Where it has nothing, the round's table drafts: the first of
    `tables` whose lookup hits where the grammar first leaves a position to
    the tables keeps the round, and only it is asked after that.  Its later
    misses emit its own filler, as the chain keeps going to full length;
    verification weeds out bad guesses.  The chain ends early only where
    the grammar is silent and no table has a hit yet.  `window` is the
    longest context a table's lookup reads.
    """
    # The first position's lookups are inline: a miss there, the round of a
    # decode that falls back, is its commonest round and returns at once.
    if grammar is None or (tok := state[0]) is None:
        for table in tables:
            if (tok := table.lookup(context)) is not None:
                break
        else:
            return MISS
        proposed = 0
    else:
        table, proposed = None, 1
    # Lookups only read the last `window` tokens, so chain on those alone.
    ctx = context[-window:]
    drafts = [tok]
    while len(drafts) < n_draft:
        ctx.append(tok)
        if grammar is not None:
            state = grammar.step(state, tok)
            if (tok := state[0]) is not None:
                proposed += 1
                drafts.append(tok)
                continue
        if table is not None:
            if (tok := table.lookup(ctx)) is None:
                tok = table.filler
        else:
            for table in tables:
                if (tok := table.lookup(ctx)) is not None:
                    break
            else:
                return drafts, None, proposed
        drafts.append(tok)
    return drafts, table, proposed


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
    backup_rounds: int = 0  # drafting rounds kept by a table after the first
    grammar_drafts: int = 0  # draft tokens the plan grammar proposed
    truncated: int = 0  # 1 if the decode stopped at max_tokens without reaching EOS

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
            "lut_size": self.lut_size,
            "backup_rounds": self.backup_rounds,
            "grammar_drafts": self.grammar_drafts,
            "truncated": self.truncated,
        }


def decode(
    target: ReferenceModel,
    prompt,
    tables: tuple[NGramLUT, ...],
    n_draft: int = DEFAULT_DRAFT_LEN,
    selective: bool = True,
    max_tokens: int = 256,
    grammar: PlanGrammar | None = None,
) -> tuple[list[int], DecodeStats]:
    """Speculative decoding loop; output always equals greedy_decode.

    The target is bound to the prompt once (`ReferenceModel.bind`) and every
    step of the loop goes to the bound model.  A round drafts from the
    first of `tables` whose lookup hits; a `grammar`, stepped over the
    committed output, proposes before any table at every draft position.
    In selective mode a round where nothing drafts costs one plain step.
    In non-selective mode every round drafts (the first table's filler on
    a miss) and pays the full verification pass, which is what makes the
    two modes comparable on cost while identical on output.
    """
    if max_tokens < 0:
        raise ValueError("max_tokens must be non-negative")
    if n_draft < 1:
        raise ValueError("n_draft must be at least 1")
    if not tables:
        raise ValueError("tables must hold at least one table")
    first = tables[0]
    window = max(table.n for table in tables) - 1
    stats = DecodeStats(selective=selective, draft_len=n_draft, lut_size=len(first))
    target = target.bind(prompt)
    context = list(prompt)
    start = len(context)
    limit = start + max_tokens
    state = None if grammar is None else grammar.START
    done = False
    while not done and len(context) < limit:
        chain = _chain(tables, window, context, n_draft, grammar, state)
        if chain is MISS and selective:
            tok = target.greedy_next(context)
            if tok == EOS_ID:
                break
            # A fallback event is an output token produced autoregressively;
            # the terminal end-of-sequence probe above is not one.
            stats.rounds += 1
            stats.fallbacks += 1
            emit = [tok]
        else:
            drafts, kept, proposed = ([first.filler] * n_draft, None, 0) if chain is MISS else chain
            accepted, corrected = verify(target, context, drafts)
            emit = drafts[:accepted]
            emit.append(corrected)
            if emit[0] == EOS_ID:
                # The pass only discovered the end of the sequence; like the
                # baseline's terminal probe it contributes no output and is
                # left out of the per-round accounting.
                break
            stats.rounds += 1
            stats.backup_rounds += kept is not None and kept is not first
            stats.grammar_drafts += proposed
            stats.drafts_generated += len(drafts)
            stats.drafts_accepted += accepted
            if EOS_ID in emit:
                del emit[emit.index(EOS_ID):]
                done = True
            del emit[limit - len(context):]
        context += emit
        if grammar is not None:
            for tok in emit:
                state = grammar.step(state, tok)
            if state is _DONE:
                grammar = None  # silent for the rest of the decode
    out = context[start:]
    # Each EOS ends the loop before `out` reaches the limit.
    stats.truncated = int(len(out) == max_tokens)
    stats.output_tokens = len(out)
    return out, stats

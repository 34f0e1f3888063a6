"""Online prompt reconstruction for cache-friendly planner and arbiter inputs.

The reconstructed planner prompt front-loads everything static — system
text plus descriptions and guidelines for every registered tool in ascending
id order — then appends the activated clusters' examples in plan order,
single-tool examples for each retrieved tool, the retrieved top-K examples,
and finally the query.  The static head and the examples before the
retrieved ones depend on the retrieved tool set alone, and a cached entry
extends them by the example retrieval ranks first for that tool set, so a
prompt can hit a precomputed entry through its first retrieved example (or
a tool set's leaf, or the leading cluster run of another); only the tail is
computed online.  The arbiter prompt is one fixed block of decision
guidelines followed by the call observations.

The weaver retrieves nothing: the caller hands each builder the query's
retrieved tool set and retrieved examples (see `pipeline.run_queries`).
The layout lives in one place: `Weaver.__init__` builds the static head
once and the plan's `leaf` lays out what a tool set adds to it (cluster
examples, then single-tool examples, both chosen by `build-plan`); the
offline cache keys (`static_planner_prefix`, `leaf_prefix`) and the online
`planner_prompt` are assembled from those same pieces.  Each prompt opens
with a head the same for every query of a run, one tuple built once: per
query, `_prompt` flattens only the query's own tail onto it, and its match
continues from the head's one resolution in the store (`KVStore.resolve`).

The baseline builder mirrors the conventional layout (retrieved-tool
descriptions injected right after a short greeting, guidance text trapped
behind them) for token-accounting comparisons.  It is a documented
approximation of that prompt family, not a verbatim template.  Its greeting
is the only prefix that policy would ever precompute, so it counts as
cached without being stored, and the baseline is matched against no store.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain

from .clusterplan import ClusterPlan
from .corpus import ToolRegistry, ToolUseExample
from .kvstore import TAG_ARBITER_STATIC, TAG_CLUSTER_COMBINATION, TAG_STATIC, CacheEntry, KVStore, ResolvedHead

SEG_STATIC_SYSTEM = "static_system"
SEG_ALL_TOOL_DESCRIPTIONS = "all_tool_descriptions"
SEG_CLUSTERED_EXAMPLES = "clustered_examples"
SEG_SINGLE_TOOL_EXAMPLES = "single_tool_examples"
SEG_RAG_EXAMPLES = "rag_examples"
SEG_USER_QUERY = "user_query"
SEG_CALL_OBSERVATIONS = "call_observations"
SEG_DECISION_GUIDELINES = "decision_guidelines"

PLANNER_SEGMENT_ORDER = (
    SEG_STATIC_SYSTEM,
    SEG_ALL_TOOL_DESCRIPTIONS,
    SEG_CLUSTERED_EXAMPLES,
    SEG_SINGLE_TOOL_EXAMPLES,
    SEG_RAG_EXAMPLES,
    SEG_USER_QUERY,
)

# Segments the on-the-fly draft table is built from: the few-shot material
# plus the live request.
FEWSHOT_REGION_KINDS = frozenset(
    {
        SEG_CLUSTERED_EXAMPLES,
        SEG_SINGLE_TOOL_EXAMPLES,
        SEG_RAG_EXAMPLES,
        SEG_USER_QUERY,
        SEG_DECISION_GUIDELINES,
        SEG_CALL_OBSERVATIONS,
    }
)

def region_tokens(segments) -> list[int]:
    """Token stream of `(kind, tokens)` segments the draft lookup table is built from: those in FEWSHOT_REGION_KINDS."""
    return list(chain.from_iterable(toks for kind, toks in segments if kind in FEWSHOT_REGION_KINDS))


MAX_DYNAMIC_EXAMPLES = 4

PLANNER_HEADER = (
    "you are the planner of an on device assistant. plan tool calls that satisfy the user request."
)

PLANNER_INSTRUCTIONS = (
    "planning instructions. produce the complete plan before any tool runs. "
    "write one numbered step per tool call in the form n . tool_name ( argument = value ). "
    "reference the output of an earlier step with $ followed by that step number, for example $1. "
    "never invent tools that are not listed above and never pass arguments of the wrong kind. "
    "prefer the smallest plan that satisfies the request, merge duplicate lookups into one step, "
    "and reuse earlier results instead of repeating work. when the request names a person, resolve "
    "their contact details before composing messages or events. when the request mentions a date or "
    "time, pass the phrase through unchanged and let the tool parse it. keep literal text from the "
    "request, such as titles and bodies, exactly as the user wrote it. if the request cannot be "
    "satisfied with the listed tools, emit a single step calling the closest tool and note the gap. "
    "study the worked examples that follow the tool list; they show complete plans for common "
    "requests and the exact output format. finish every plan with the marker end of plan."
)

BASELINE_HEADER = "you are a helpful assistant that plans tool calls for the user."

ARBITER_GUIDELINES = (
    "you are the arbiter of an on device assistant. you receive the executed tool calls and "
    "their observations and must decide whether the user request was satisfied. decision "
    "guidelines. accept the run only if every planned call executed without an error "
    "observation and the final observation answers the request. reject the run and ask for a "
    "retry if any call returned an error, if a referenced result was empty, or if the plan "
    "skipped a step the request clearly required. never invent observations that are not "
    "listed, and never accept a run whose last call failed. when you accept, reply with the "
    "single word complete. when you reject, reply with retry followed by the number of the "
    "failing step. treat a warning observation as a success unless a later call depended on the "
    "missing part. treat an empty observation from a lookup as a failure of that lookup. when "
    "two steps failed, report the earliest one, because fixing it may fix the rest. decision "
    "examples. example one. calls. 1 . get_email_address ( name = anna ) "
    "observation ok address found. 2 . compose_new_email ( to = $1 ) observation ok message "
    "sent. every call succeeded and the message was sent, so the verdict is complete. example "
    "two. calls. 1 . get_phone_number ( name = omar ) observation error no match. the lookup "
    "failed before anything else could run, so the verdict is retry 1. example three. calls. "
    "1 . create_note ( title = groceries ) observation ok note created. 2 . append_note_content "
    "( note = $1 ) observation error note locked. the second step failed after the first "
    "succeeded, so the verdict is retry 2. example four. calls. 1 . search_notes ( phrase = "
    "budget ) observation ok one match. 2 . open_note ( title = $1 ) observation ok note "
    "opened. every call succeeded and the requested note is open, so the verdict is complete. "
    "example five. calls. 1 . create_calendar_event ( title = review , when = friday ) "
    "observation ok event created. 2 . create_reminder ( text = review ) observation error "
    "reminders unavailable. the event exists but the requested reminder failed, so the verdict "
    "is retry 2. example six. calls. 1 . get_zoom_link ( topic = standup ) observation ok link "
    "created. 2 . get_email_address ( name = wei ) observation ok address found. 3 . "
    "create_calendar_event ( title = standup , invitee = $2 , link = $1 ) observation ok event "
    "created. all three calls succeeded and the meeting carries the link and the invitee, so "
    "the verdict is complete. example seven. calls. 1 . summarize_inbox ( count = 10 ) "
    "observation ok digest ready. 2 . forward_email ( subject = invoice , to = dana ) "
    "observation error message not found. the digest worked but the forward failed to locate "
    "its message, so the verdict is retry 2. now judge the following run."
)


@dataclass(frozen=True)
class ReconstructedPrompt:
    """An ordered list of (kind, tokens) segments, their concatenation, plus cache accounting."""

    segments: tuple[tuple[str, tuple[int, ...]], ...]
    tokens: tuple[int, ...]
    cache_entry: CacheEntry | None
    match_len: int
    head_len: int  # length of the run-wide head the prompt opens with
    stats: dict = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return len(self.tokens)

    @property
    def cacheable_tokens(self) -> int:
        return self.match_len

    @property
    def uncacheable_tokens(self) -> int:
        return self.total_tokens - self.match_len

    @property
    def static_tokens(self) -> int:
        """Served tokens inside the run-wide head: their KV does not depend on the query."""
        return min(self.match_len, self.head_len)

    def extraction_region(self) -> list[int]:
        """Token stream the draft lookup table is built from."""
        return region_tokens(self.segments)

    def to_dict(self) -> dict:
        return {
            "segments": [{"kind": kind, "tokens": list(toks)} for kind, toks in self.segments],
            "total_tokens": self.total_tokens,
            "cacheable_tokens": self.cacheable_tokens,
            "uncacheable_tokens": self.uncacheable_tokens,
            "static_tokens": self.static_tokens,
            "stats": self.stats,
        }


def _example_run(examples) -> tuple[int, ...]:
    """The tokens of the given examples, in the given order."""
    return tuple(chain.from_iterable(ex.example_tokens for ex in examples))


def warm_vocabulary(tokenizer) -> None:
    """Tokenize every template so persisted vocabularies cover them.

    Must run before a vocabulary is frozen to disk; otherwise separate
    commands could assign different ids to template words and cached
    prefixes would never match.
    """
    tokenizer.tokenize(PLANNER_HEADER)
    tokenizer.tokenize(PLANNER_INSTRUCTIONS)
    tokenizer.tokenize(BASELINE_HEADER)
    tokenizer.tokenize(ARBITER_GUIDELINES)
    for word in ("tool", "guidelines", ":", "request", "examples", "observations"):
        tokenizer.tokenize(word)


class Weaver:
    """Builds reconstructed, baseline, and arbiter prompts over one corpus."""

    def __init__(self, registry: ToolRegistry, tokenizer, plan: ClusterPlan):
        self.registry = registry
        self.tokenizer = tokenizer
        self.plan = plan

        self._instructions = tuple(tokenizer.tokenize(PLANNER_INSTRUCTIONS))
        self._system = tuple(tokenizer.tokenize(PLANNER_HEADER)) + self._instructions
        self._baseline_header = tuple(tokenizer.tokenize(BASELINE_HEADER))
        self._arbiter = tuple(tokenizer.tokenize(ARBITER_GUIDELINES))
        self._tool_blocks = {t: self._tool_block(t) for t in registry.tool_ids()}
        self._descriptions = tuple(chain.from_iterable(self._tool_blocks[t] for t in registry.tool_ids()))

        # Each prompt's head: its segments, and their tokens as one tuple.
        head = ((SEG_STATIC_SYSTEM, self._system), (SEG_ALL_TOOL_DESCRIPTIONS, self._descriptions))
        self._planner_head = head, self._system + self._descriptions
        self._baseline_head = ((SEG_STATIC_SYSTEM, self._baseline_header),), self._baseline_header
        self._arbiter_head = ((SEG_DECISION_GUIDELINES, self._arbiter),), self._arbiter
        self._starts: dict[int, tuple[KVStore, ResolvedHead]] = {}  # id of a head's tokens -> (store, its resolve)
        # Retrieved tool set -> its leaf (`ClusterPlan.leaf`), activated clusters and duplicate singles: laid out once per set.
        self._leaves: dict[frozenset[str], tuple] = {}

    def _tool_block(self, tool_id: str) -> tuple[int, ...]:
        tool = self.registry[tool_id]
        head = self.tokenizer.tokenize(f"tool {tool.id} :")
        mid = self.tokenizer.tokenize("guidelines :")
        return tuple(head) + tool.description_tokens + tuple(mid) + tool.guideline_tokens

    # ---- cacheable prefixes -------------------------------------------------

    def static_planner_prefix(self) -> tuple[int, ...]:
        """Header, instructions, and every tool's description block: the planner prompt's head."""
        return self._planner_head[1]

    def leaf_prefix(self, tools, example_tokens=()) -> tuple[int, ...]:
        """The static head, then the plan's `leaf` of `tools`, then `example_tokens`.

        Without an example it is the head of every planner prompt that
        retrieves exactly `tools`; with the example such a prompt retrieves
        first, the cache key of a `CachedLeaf`.
        """
        return self.static_planner_prefix() + tuple(chain(*self.plan.leaf(tools), example_tokens))

    def arbiter_prefix(self) -> tuple[int, ...]:
        return self._arbiter

    def cacheable_prefixes(self) -> dict[str, list[tuple[int, ...]]]:
        """Everything the offline phase should precompute, grouped by tag; empty groups left out."""
        groups = {
            TAG_STATIC: [self.static_planner_prefix()],
            TAG_CLUSTER_COMBINATION: [self.leaf_prefix(leaf.tools, leaf.example_tokens) for leaf in self.plan.cached_leaves],
            TAG_ARBITER_STATIC: [self.arbiter_prefix()],
        }
        return {tag: prefixes for tag, prefixes in groups.items() if prefixes}

    # ---- prompt builders ----------------------------------------------------

    def _prompt(self, head, tail, store: KVStore | None, stats: dict) -> ReconstructedPrompt:
        """One of the weaver's heads, then the `tail` segments, matched against `store` from the head's resolution."""
        segments, head_tokens = head
        tokens = head_tokens + tuple(chain.from_iterable(toks for _, toks in tail))
        entry, match_len = None, 0
        if store is not None:
            known = self._starts.get(id(head_tokens))
            if known is None or known[0] is not store:
                known = self._starts[id(head_tokens)] = store, store.resolve(head_tokens)
            entry, match_len = store.longest_cached_prefix(tokens, start=known[1])
        return ReconstructedPrompt(segments + tail, tokens, entry, match_len, len(head_tokens), stats)

    def planner_prompt(
        self,
        query_tokens,
        retrieved,
        examples: list[ToolUseExample],
        store: KVStore | None = None,
    ) -> ReconstructedPrompt:
        """The reconstructed planner prompt for one query, given its `retrieved` tool set.

        `examples` are the query's retrieved examples, at most
        MAX_DYNAMIC_EXAMPLES, appended after the single-tool examples.  An
        empty retrieved tool set still produces a valid prompt (no clusters
        activate); the condition is flagged in the stats.
        """
        if len(examples) > MAX_DYNAMIC_EXAMPLES:
            raise ValueError(f"the planner prompt holds at most {MAX_DYNAMIC_EXAMPLES} retrieved examples, not {len(examples)}")
        retrieved = frozenset(retrieved)
        leaf = self._leaves.get(retrieved)
        if leaf is None:
            activated = self.plan.activation_sequence(retrieved)
            clustered_ids = {self.plan.cluster_by_id(cluster_id).example_id for cluster_id in activated}
            duplicates = sum(self.plan.single_examples[t][0] in clustered_ids for t in retrieved if t in self.plan.single_examples)
            leaf = self._leaves[retrieved] = self.plan.leaf(retrieved), activated, duplicates
        (clustered, singles), activated, duplicates = leaf
        tail = (
            (SEG_CLUSTERED_EXAMPLES, clustered),
            (SEG_SINGLE_TOOL_EXAMPLES, singles),
            (SEG_RAG_EXAMPLES, _example_run(examples)),
            (SEG_USER_QUERY, tuple(query_tokens)),
        )
        stats = {
            "retrieved_tools": sorted(retrieved),
            "activated_clusters": list(activated),
            "rag_example_ids": [ex.id for ex in examples],
            "duplicate_single_tool_examples": duplicates,
            "degenerate_empty_retrieval": not retrieved,
        }
        return self._prompt(self._planner_head, tail, store, stats)

    def baseline_prompt(self, query_tokens, retrieved, examples: list[ToolUseExample]) -> ReconstructedPrompt:
        """Conventional prompt order used as the accounting baseline, ending in the retrieved `examples`.

        Retrieved-tool descriptions land right after a short greeting, which
        is what pushes the first dynamic token near the front and strands the
        guidance text behind it.  The greeting is the cached region: it is
        the only prefix the baseline policy would ever precompute.
        """
        retrieved = set(retrieved)
        tail = (
            (SEG_ALL_TOOL_DESCRIPTIONS, tuple(chain.from_iterable(self._tool_blocks[t] for t in sorted(retrieved)))),
            (SEG_DECISION_GUIDELINES, self._instructions),
            (SEG_RAG_EXAMPLES, _example_run(examples)),
            (SEG_USER_QUERY, tuple(query_tokens)),
        )
        stats = {
            "retrieved_tools": sorted(retrieved),
            "first_dynamic_token_index": len(self._baseline_header),
            "degenerate_empty_retrieval": not retrieved,
        }
        return replace(self._prompt(self._baseline_head, tail, None, stats), match_len=len(self._baseline_header))

    def arbiter_prompt(self, observation_tokens, store: KVStore | None = None) -> ReconstructedPrompt:
        """The static guidelines followed by the call-observation pairs."""
        return self._prompt(self._arbiter_head, ((SEG_CALL_OBSERVATIONS, tuple(observation_tokens)),), store, {})

"""Online prompt reconstruction for cache-friendly planner and arbiter inputs.

The reconstructed planner prompt front-loads everything static — system
text plus descriptions and guidelines for every registered tool in ascending
id order — then appends the activated clusters' examples in plan order,
single-tool examples for each activated tool, the retrieved top-K examples,
and finally the query.  The static head and the leading run of cluster
examples can then hit precomputed cache entries; only the tail is computed
online.  The arbiter prompt is one fixed block of decision guidelines
followed by the call observations.

The weaver retrieves nothing: the caller hands each builder the query's
retrieved tool set and retrieved examples (see `pipeline.run_queries`).
The layout lives in one place: `Weaver.__init__` builds the static head
once and `_cluster_run` turns cluster ids into example tokens; the offline
cache keys (`static_planner_prefix`, `combination_prefix`) and the online
`planner_prompt` are assembled from those same pieces, and `_prompt`
flattens each prompt once.

The baseline builder mirrors the conventional layout (retrieved-tool
descriptions injected right after a short greeting, guidance text trapped
behind them) for token-accounting comparisons.  It is a documented
approximation of that prompt family, not a verbatim template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .clusterplan import ClusterPlan
from .corpus import ToolRegistry, ToolUseExample
from .kvstore import TAG_ARBITER_STATIC, TAG_CLUSTER_COMBINATION, TAG_STATIC, CacheEntry, KVStore

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

# Segments the on-the-fly draft table is built from under the default
# extraction policy: the few-shot material plus the live request.
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


# The known values of the `extract` run setting.
EXTRACT_MODES = ("fewshot", "all")


def region_tokens(segments, mode: str = "fewshot") -> list[int]:
    """Token stream of `(kind, tokens)` segments the draft lookup table is built from.

    `all` takes the whole prompt; `fewshot` the segments in FEWSHOT_REGION_KINDS.
    """
    if mode not in EXTRACT_MODES:
        raise ValueError(f"unknown extraction mode '{mode}'")
    return list(chain.from_iterable(toks for kind, toks in segments if mode == "all" or kind in FEWSHOT_REGION_KINDS))


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
    tokens: list[int]
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

    def extraction_region(self, mode: str = "fewshot") -> list[int]:
        """Token stream the draft lookup table is built from."""
        return region_tokens(self.segments, mode)

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

    def __init__(self, registry: ToolRegistry, tokenizer, plan: ClusterPlan, examples: list[ToolUseExample]):
        self.registry = registry
        self.tokenizer = tokenizer
        self.plan = plan
        self.examples = list(examples)

        self._instructions = tuple(tokenizer.tokenize(PLANNER_INSTRUCTIONS))
        self._system = tuple(tokenizer.tokenize(PLANNER_HEADER)) + self._instructions
        self._baseline_header = tuple(tokenizer.tokenize(BASELINE_HEADER))
        self._arbiter = tuple(tokenizer.tokenize(ARBITER_GUIDELINES))
        self._tool_blocks = {t: self._tool_block(t) for t in registry.tool_ids()}
        self._descriptions = tuple(chain.from_iterable(self._tool_blocks[t] for t in registry.tool_ids()))

        self._single_example = {t: self._pick_single_example(t) for t in registry.tool_ids()}

    def _tool_block(self, tool_id: str) -> tuple[int, ...]:
        tool = self.registry[tool_id]
        head = self.tokenizer.tokenize(f"tool {tool.id} :")
        mid = self.tokenizer.tokenize("guidelines :")
        return tuple(head) + tool.description_tokens + tuple(mid) + tool.guideline_tokens

    def _pick_single_example(self, tool_id: str) -> ToolUseExample | None:
        """Single-tool example for a tool, or its double-tool substitute.

        A few tools have no single-tool example in the database; for those
        the smallest two-tool example mentioning the tool stands in.
        """
        singles = sorted((ex for ex in self.examples if ex.tools == frozenset({tool_id})), key=lambda e: e.id)
        if singles:
            return singles[0]
        doubles = sorted(
            (ex for ex in self.examples if tool_id in ex.tools and len(ex.tools) == 2),
            key=lambda e: e.id,
        )
        if doubles:
            return doubles[0]
        return None

    def _cluster_run(self, cluster_ids) -> tuple[int, ...]:
        """The example tokens of the given clusters, in the given order."""
        return tuple(chain.from_iterable(self.plan.cluster_by_id(c).example_tokens for c in cluster_ids))

    # ---- cacheable prefixes -------------------------------------------------

    def static_planner_prefix(self) -> tuple[int, ...]:
        """Header, instructions, and every tool's description block."""
        return self._system + self._descriptions

    def combination_prefix(self, combo) -> tuple[int, ...]:
        """Static prefix extended with one cached cluster combination."""
        return self.static_planner_prefix() + self._cluster_run(combo)

    def arbiter_prefix(self) -> tuple[int, ...]:
        return self._arbiter

    def baseline_header_prefix(self) -> tuple[int, ...]:
        return self._baseline_header

    def cacheable_prefixes(self) -> dict[str, list[tuple[int, ...]]]:
        """Everything the offline phase should precompute, grouped by tag; empty groups left out."""
        groups = {
            TAG_STATIC: [self.static_planner_prefix(), self.baseline_header_prefix()],
            TAG_CLUSTER_COMBINATION: [self.combination_prefix(c) for c in self.plan.cached_combinations],
            TAG_ARBITER_STATIC: [self.arbiter_prefix()],
        }
        return {tag: prefixes for tag, prefixes in groups.items() if prefixes}

    # ---- prompt builders ----------------------------------------------------

    @staticmethod
    def _prompt(segments, store: KVStore | None, stats: dict, head_len: int, unstored_match_len: int = 0) -> ReconstructedPrompt:
        """Flatten `segments` once and match them against `store` (without one, `unstored_match_len` is cacheable).

        The first `head_len` tokens are the prompt's head, the same for every query of a run.
        """
        tokens = region_tokens(segments, "all")
        if store is None:
            entry, match_len = None, unstored_match_len
        else:
            entry, match_len = store.longest_cached_prefix(tokens)
        return ReconstructedPrompt(
            segments=segments, tokens=tokens, cache_entry=entry, match_len=match_len, head_len=head_len, stats=stats
        )

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
        retrieved = set(retrieved)

        activated = self.plan.activation_sequence(retrieved)
        clustered_ids = {self.plan.cluster_by_id(cluster_id).example_id for cluster_id in activated}

        singles: list[int] = []
        duplicate_singles = 0
        for tool_id in sorted(retrieved):
            example = self._single_example.get(tool_id)
            if example is None:
                continue
            if example.id in clustered_ids:
                duplicate_singles += 1
            singles.extend(example.example_tokens)

        segments = (
            (SEG_STATIC_SYSTEM, self._system),
            (SEG_ALL_TOOL_DESCRIPTIONS, self._descriptions),
            (SEG_CLUSTERED_EXAMPLES, self._cluster_run(activated)),
            (SEG_SINGLE_TOOL_EXAMPLES, tuple(singles)),
            (SEG_RAG_EXAMPLES, _example_run(examples)),
            (SEG_USER_QUERY, tuple(query_tokens)),
        )
        stats = {
            "retrieved_tools": sorted(retrieved),
            "activated_clusters": list(activated),
            "rag_example_ids": [ex.id for ex in examples],
            "duplicate_single_tool_examples": duplicate_singles,
            "degenerate_empty_retrieval": not retrieved,
        }
        return self._prompt(segments, store, stats, head_len=len(self._system) + len(self._descriptions))

    def baseline_prompt(
        self,
        query_tokens,
        retrieved,
        examples: list[ToolUseExample],
        store: KVStore | None = None,
    ) -> ReconstructedPrompt:
        """Conventional prompt order used as the accounting baseline, ending in the retrieved `examples`.

        Retrieved-tool descriptions land right after a short greeting, which
        is what pushes the first dynamic token near the front and strands the
        guidance text behind it.  Without a store, the greeting is treated as
        the cacheable region (it is the only prefix the baseline policy would
        ever precompute).
        """
        retrieved = set(retrieved)
        desc: list[int] = []
        for tool_id in sorted(retrieved):
            desc.extend(self._tool_blocks[tool_id])

        segments = (
            (SEG_STATIC_SYSTEM, self._baseline_header),
            (SEG_ALL_TOOL_DESCRIPTIONS, tuple(desc)),
            (SEG_DECISION_GUIDELINES, self._instructions),
            (SEG_RAG_EXAMPLES, _example_run(examples)),
            (SEG_USER_QUERY, tuple(query_tokens)),
        )
        stats = {
            "retrieved_tools": sorted(retrieved),
            "first_dynamic_token_index": len(self._baseline_header),
            "degenerate_empty_retrieval": not retrieved,
        }
        head_len = len(self._baseline_header)
        return self._prompt(segments, store, stats, head_len=head_len, unstored_match_len=head_len)

    def arbiter_prompt(self, observation_tokens, store: KVStore | None = None) -> ReconstructedPrompt:
        """The static guidelines followed by the call-observation pairs."""
        segments = (
            (SEG_DECISION_GUIDELINES, self._arbiter),
            (SEG_CALL_OBSERVATIONS, tuple(observation_tokens)),
        )
        return self._prompt(segments, store, {}, head_len=len(self._arbiter))

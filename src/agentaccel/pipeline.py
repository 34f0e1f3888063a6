"""End-to-end per-query execution: retrieve, weave, decode, record.

This is the library-side implementation of the `run` command.  Queries run
one at a time, in test order, and each is independent: retrieval picks the
tool set and then ranks the examples once, the weaver builds the
reconstructed prompt from the top `k` of them against the shared cache store
and the baseline prompt from the top `top_k`, the configured reference model decodes the plan and the arbiter verdict through
the speculative path, and the token accounting plus decode statistics land
in one trace record for the simulator.  The planner also drafts from the
plan's table of the train split's plans (`plan_draft_table`) wherever its
prompt's table misses, and from the plan format's grammar
(`exspec.PlanGrammar`) before either table; the grammar awaits the query's
retrieved tools, which its prompt shows.  Given `emit`, `run_queries` also
hands over each query's document: its planner, baseline and arbiter
prompts, and for the planner and the arbiter the output, the record's own
`decode` statistics and whether the output equals `lm.greedy_decode` of the
same model and prompt.  It is built from the same objects as the trace
record, so the two cannot disagree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar

from . import corpus, exspec, lm, toolrag
from .clusterplan import ClusterPlan
from .kvstore import KVStore
from .simulator import RoleTrace, TraceRecord
from .tokenizer import EOS_ID, Tokenizer
from .weaver import Weaver


# The known values of the `scorer` and `model` run settings.
SCORERS = ("cosine", "oracle")
MODELS = ("scripted", "markov")


@dataclass
class CorpusBundle:
    """The loaded corpus.  The train split is kept as the bytes read and parsed on first use."""

    tokenizer: Tokenizer
    registry: corpus.ToolRegistry
    train_path: Path
    train_bytes: bytes = field(repr=False)
    test: list[corpus.QuerySample]
    examples: list[corpus.ToolUseExample]
    embedder: toolrag.TfidfEmbedder

    @property
    def train_sha256(self) -> str:
        return hashlib.sha256(self.train_bytes).hexdigest()

    @cached_property
    def train(self) -> list[corpus.QuerySample]:
        return corpus.load_dataset(self.train_path, self.registry, self.tokenizer, self.train_bytes)

    def make_rag(self, scorer_name: str) -> toolrag.ToolRag:
        if scorer_name not in SCORERS:
            raise ValueError(f"unknown scorer '{scorer_name}'")
        if scorer_name == "oracle":
            scorer = toolrag.OracleToolScorer(self.registry, self.test)
        else:
            scorer = toolrag.CosineToolScorer(self.registry, self.examples)
        return toolrag.ToolRag(self.examples, self.embedder, scorer, self.tokenizer)

    def top_train_examples(self) -> list[corpus.ToolUseExample | None]:
        """Each train sample's top example for its own tool set (`ToolRag.top_examples`): what `build-plan` caches."""
        return toolrag.ToolRag(self.examples, self.embedder, None, self.tokenizer).top_examples(self.train)


def load_bundle(registry_path, train_path, test_path, examples_path, vocab_path=None) -> CorpusBundle:
    """Load and cross-validate the corpus behind one call.

    The train file is read here, once, and parsed from those bytes on first
    use of `train`.  The embedder is fitted on the raw example texts before
    the database is loaded, because loading computes each entry's embedding.
    """
    tok = Tokenizer.load(vocab_path) if vocab_path else Tokenizer()
    registry = corpus.load_registry(registry_path, tok)
    train_bytes = corpus.read_file(train_path)
    test = corpus.load_dataset(test_path, registry, tok) if test_path else []

    embedder = toolrag.TfidfEmbedder.fit(corpus.load_example_texts(examples_path))
    examples = corpus.load_example_db(examples_path, registry, tok, embedder)
    return CorpusBundle(
        tokenizer=tok,
        registry=registry,
        train_path=Path(train_path),
        train_bytes=train_bytes,
        test=test,
        examples=examples,
        embedder=embedder,
    )


def observation_text(plan: corpus.PlanDAG) -> str:
    """Deterministic call-observation rendering for the arbiter input."""
    parts = ["calls ."]
    for i, node in enumerate(plan.nodes, start=1):
        args = " , ".join(node.args)
        parts.append(f"{i} . {node.call} ( {args} ) observation ok result {i}")
    return " ".join(parts)


ARBITER_VERDICT = (
    "every call succeeded and the final observation answers the request , so the verdict is complete"
)


@dataclass
class RunSettings:
    tau: float = toolrag.DEFAULT_TAU
    scorer: str = "oracle"
    top_k: int = toolrag.DEFAULT_TOP_K  # baseline retrieved-example count
    k: int = 1  # planner retrieved-example count
    n: int = exspec.DEFAULT_N
    draft_len: int = exspec.DEFAULT_DRAFT_LEN
    selective: bool = True
    model: str = "scripted"
    max_tokens: int = 160
    # Not a setting: queries run one at a time, in test order.  The
    # benchmark's output checker still reads it; ROADMAP item 1 deletes the two together.
    jobs: ClassVar[int] = 1


# The run.json section each RunSettings field is read from.
RUN_SECTIONS = {
    "toolrag": ("tau", "scorer", "top_k"),
    "weaver": ("k",),
    "exspec": ("n", "draft_len", "selective"),
    "run": ("model", "max_tokens"),
}


def plan_draft_table(bundle: CorpusBundle) -> exspec.NGramLUT:
    """The `exspec.DEFAULT_N`-gram table of the train split's plan renders.

    The renders are counted in train order with EOS between them.  Only ids
    the vocabulary file defines are counted: any other id depends on the
    order words were first tokenized in, so a window holding one is dropped.
    """
    stream: list[int] = []
    for sample in bundle.train:
        if stream:
            stream.append(EOS_ID)
        stream += bundle.tokenizer.tokenize(corpus.render_plan(sample.gt_plan))
    return exspec.build_lut(stream, exspec.DEFAULT_N, defined=bundle.tokenizer.defined_ids | {EOS_ID})


def _build_markov(bundle: CorpusBundle) -> lm.MarkovModel:
    """Order-2 chain over request+plan streams in the example-text shape.

    Concatenating each query with its plan render teaches the chain to flow
    from request text into plan text, so its greedy continuations overlap
    the prompt's few-shot examples the way real planner output does.
    """
    streams = []
    for sample in bundle.train:
        text = f"request : {sample.query_text} . plan : {corpus.render_plan(sample.gt_plan)}"
        streams.append(bundle.tokenizer.tokenize(text))
    for ex in bundle.examples:
        streams.append(list(ex.example_tokens))
    return lm.train_markov(streams, order=2, smoothing=0.0)


def run_queries(
    bundle: CorpusBundle,
    plan: ClusterPlan,
    store: KVStore | None,
    settings: RunSettings,
    emit=None,
) -> list[TraceRecord]:
    """The trace record of every test query, in test order; `emit`, if given, gets each query's document."""
    rag = bundle.make_rag(settings.scorer)
    weaver = Weaver(bundle.registry, bundle.tokenizer, plan)
    markov = _build_markov(bundle) if settings.model == "markov" else None
    if settings.model not in MODELS:
        raise ValueError(f"unknown reference model '{settings.model}'")
    arbiter_script = bundle.tokenizer.tokenize(ARBITER_VERDICT)
    # The arbiter's draft table extends the counts of its guidelines, which
    # open every arbiter prompt, taken once here.
    arbiter_head = exspec.count_head(weaver.arbiter_prefix(), settings.n)
    # A plan of at most max_tokens tokens has fewer steps than that.
    grammar = exspec.PlanGrammar.read(bundle.tokenizer, settings.max_tokens)

    records = []
    for idx, sample in enumerate(bundle.test):
        retrieved = rag.retrieve_tools(sample.query_tokens, settings.tau)
        # The ranking is a total order, so each prompt's top examples are a prefix of one ranking.
        examples = rag.retrieve_examples(sample.query_tokens, retrieved, max(settings.k, settings.top_k))
        wp = weaver.planner_prompt(sample.query_tokens, retrieved, examples[: settings.k], store=store)
        bp = weaver.baseline_prompt(sample.query_tokens, retrieved, examples[: settings.top_k])

        planner_script = bundle.tokenizer.tokenize(corpus.render_plan(sample.gt_plan))
        obs_tokens = bundle.tokenizer.tokenize(observation_text(sample.gt_plan))
        ap = weaver.arbiter_prompt(obs_tokens, store=store)

        planner_grammar = grammar.awaiting(map(bundle.tokenizer.id_of, retrieved))
        decoded = {}  # role -> (model, prompt, output, decode stats); the planner decodes first
        for role, prompt, script, head, backup, role_grammar in (
            ("planner", wp, planner_script, None, plan.draft_table, planner_grammar),
            ("arbiter", ap, arbiter_script, arbiter_head, None, None),
        ):
            model = lm.ScriptedModel(prompt.tokens, script) if settings.model == "scripted" else markov
            lut = exspec.build_lut(prompt.extraction_region(), settings.n, head)
            out, stats = exspec.decode(
                model, prompt.tokens, lut, settings.draft_len, settings.selective, settings.max_tokens, backup, role_grammar
            )
            decoded[role] = model, prompt, out, stats.to_dict()

        def role_trace(role, baseline_total, baseline_uncacheable) -> RoleTrace:
            _, prompt, out, stats = decoded[role]
            return RoleTrace(
                baseline_total, baseline_uncacheable, prompt.total_tokens, prompt.uncacheable_tokens, prompt.static_tokens, len(out), stats
            )

        record = TraceRecord(
            query_id=f"q{idx:04d}",
            tool_count=len(sample.gt_plan.nodes),
            planner=role_trace("planner", bp.total_tokens, bp.uncacheable_tokens),
            # The arbiter has a single prompt shape; its baseline is the same
            # prompt with nothing precomputed.
            arbiter=role_trace("arbiter", ap.total_tokens, ap.total_tokens),
        )
        if emit is not None:
            emit({
                "query_id": record.query_id,
                "prompts": {"planner": wp.to_dict(), "baseline": bp.to_dict(), "arbiter": ap.to_dict()},
                "decodes": {
                    role: {
                        "output_tokens": out,
                        "stats": stats,
                        "matches_autoregressive": out == lm.greedy_decode(model, prompt.tokens, settings.max_tokens),
                    }
                    for role, (model, prompt, out, stats) in decoded.items()
                },
            })
        records.append(record)
    return records

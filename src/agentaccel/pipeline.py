"""End-to-end per-query execution: retrieve, weave, decode, record.

This is the library-side implementation of the `run` command.  Each query is
independent: retrieval picks the tool set and then ranks the examples once,
the weaver builds the reconstructed prompt from the top `k` of them and the
baseline prompt from the top `top_k` against the shared cache store, the
configured reference model decodes the plan and the arbiter verdict through
the speculative path, and the token accounting plus decode statistics land
in one trace record for the simulator.  The planner also drafts from the
plan's table of the train split's plans (`plan_draft_table`) wherever its
prompt's table misses.  Given `emit`, `run_queries` also hands over each
query's document: its planner, baseline and arbiter prompts, and for the
planner and the arbiter the output, the record's own `decode` statistics and
whether the output equals `lm.greedy_decode` of the same model and prompt.
It is built from the same objects as the trace record, so the two cannot
disagree.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

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
            scorer = toolrag.CosineToolScorer(self.registry, self.examples, self.embedder, self.tokenizer)
        return toolrag.ToolRag(self.examples, self.embedder, scorer, self.tokenizer)


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
    extract: str = "fewshot"
    model: str = "scripted"
    max_tokens: int = 160
    jobs: int = 1


# The run.json section each RunSettings field is read from.
RUN_SECTIONS = {
    "toolrag": ("tau", "scorer", "top_k"),
    "weaver": ("k",),
    "exspec": ("n", "draft_len", "selective", "extract"),
    "run": ("model", "max_tokens", "jobs"),
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
    weaver = Weaver(bundle.registry, bundle.tokenizer, plan, bundle.examples)
    markov = _build_markov(bundle) if settings.model == "markov" else None
    if settings.model not in MODELS:
        raise ValueError(f"unknown reference model '{settings.model}'")
    arbiter_script = bundle.tokenizer.tokenize(ARBITER_VERDICT)
    # Draft tables of regions that open with a prompt part fixed for the
    # run extend that part's counts, taken once here.
    arbiter_head = exspec.count_head(weaver.arbiter_prefix(), settings.n)
    planner_head = exspec.count_head(weaver.static_planner_prefix(), settings.n) if settings.extract == "all" else None

    def run_one(idx_sample) -> TraceRecord:
        idx, sample = idx_sample
        retrieved = rag.retrieve_tools(sample.query_tokens, settings.tau)
        # The ranking is a total order, so each prompt's top examples are a prefix of one ranking.
        examples = rag.retrieve_examples(sample.query_tokens, retrieved, max(settings.k, settings.top_k))
        wp = weaver.planner_prompt(sample.query_tokens, retrieved, examples[: settings.k], store=store)
        bp = weaver.baseline_prompt(sample.query_tokens, retrieved, examples[: settings.top_k], store=store)

        planner_script = bundle.tokenizer.tokenize(corpus.render_plan(sample.gt_plan))
        obs_tokens = bundle.tokenizer.tokenize(observation_text(sample.gt_plan))
        ap = weaver.arbiter_prompt(obs_tokens, store=store)

        if settings.model == "scripted":
            planner_model = lm.ScriptedModel(wp.tokens, planner_script)
            arbiter_model = lm.ScriptedModel(ap.tokens, arbiter_script)
        else:
            planner_model = markov
            arbiter_model = markov

        planner_lut = exspec.build_lut(wp.extraction_region(settings.extract), settings.n, planner_head)
        planner_out, planner_stats = exspec.decode(
            planner_model, wp.tokens, planner_lut, settings.draft_len, settings.selective, settings.max_tokens,
            backup=plan.draft_table,
        )
        arbiter_lut = exspec.build_lut(ap.extraction_region(settings.extract), settings.n, arbiter_head)
        arbiter_out, arbiter_stats = exspec.decode(
            arbiter_model, ap.tokens, arbiter_lut, settings.draft_len, settings.selective, settings.max_tokens
        )

        planner_role = RoleTrace(
            baseline_total=bp.total_tokens,
            baseline_uncacheable=bp.uncacheable_tokens,
            weaver_total=wp.total_tokens,
            weaver_uncacheable=wp.uncacheable_tokens,
            weaver_static=wp.static_tokens,
            output_tokens=len(planner_out),
            decode=planner_stats.to_dict(),
        )
        # The arbiter has a single prompt shape; its baseline is the same
        # prompt with nothing precomputed.
        arbiter_role = RoleTrace(
            baseline_total=ap.total_tokens,
            baseline_uncacheable=ap.total_tokens,
            weaver_total=ap.total_tokens,
            weaver_uncacheable=ap.uncacheable_tokens,
            weaver_static=ap.static_tokens,
            output_tokens=len(arbiter_out),
            decode=arbiter_stats.to_dict(),
        )
        record = TraceRecord(
            query_id=f"q{idx:04d}",
            tool_count=len(sample.gt_plan.nodes),
            planner=planner_role,
            arbiter=arbiter_role,
        )
        if emit is not None:
            decoded = {"planner": (planner_model, wp, planner_out), "arbiter": (arbiter_model, ap, arbiter_out)}
            emit({
                "query_id": record.query_id,
                "prompts": {"planner": wp.to_dict(), "baseline": bp.to_dict(), "arbiter": ap.to_dict()},
                "decodes": {
                    role: {
                        "output_tokens": out,
                        "stats": getattr(record, role).decode,
                        "matches_autoregressive": out == lm.greedy_decode(model, prompt.tokens, settings.max_tokens),
                    }
                    for role, (model, prompt, out) in decoded.items()
                },
            })
        return record

    items = list(enumerate(bundle.test))
    if settings.jobs > 1:
        with ThreadPoolExecutor(max_workers=settings.jobs) as pool:
            return list(pool.map(run_one, items))
    return [run_one(item) for item in items]

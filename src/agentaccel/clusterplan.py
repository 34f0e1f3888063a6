"""Offline cache planning: tool clustering, ordering, and prefix selection.

Pipeline: factorize the tool co-activation matrix with NMF, partition tools
by their dominant factor, label each cluster with its modal theme, impose a
fixed total order (theme groups first, cluster id second), choose each
cluster's example and each tool's single-tool example, then greedily pick,
under a fixed budget, the cached planner streams that would serve the most
tokens of the training queries.

A tool set's leaf (`ClusterPlan.leaf`) is everything its planner prompt
lays out after the static head that depends on the tool set alone: the
activated clusters' examples in plan order, then the single-tool examples.
Next the prompt lays out the example retrieval ranks first, so a training
query's stream is its tool set's leaf, then that example
(`ToolRag.top_examples`), and the candidates are the distinct (tool set,
example id) streams; the plan keeps each pick as a `CachedLeaf`.  The
store keeps each picked stream behind
the static head as one key, and its radix tree serves a key's leaf to
queries whose top example differs, and its leading cluster run to queries
whose tool set differs, so no shorter prefix is a candidate: the stream it
is a prefix of covers at least as much of every query.

Everything is deterministic given (matrix, rank, seed, tol), so a plan can be
rebuilt byte-identically from its provenance block.  A plan may also carry
the planner's offline draft table (`exspec.NGramLUT`), which `run` drafts
from when a prompt's own table misses.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import shapes
from .corpus import CoactivationMatrix, ToolRegistry, ToolUseExample
from .exspec import NGramLUT
from .kvstore import common_head

DEFAULT_RANK = 8
DEFAULT_ITERS = 500
DEFAULT_TOL = 1e-6

_EPS = 1e-12


@dataclass
class NmfResult:
    w: np.ndarray  # T x k, tool loadings
    h: np.ndarray  # k x T
    err_history: list[float]  # Frobenius error, one entry per iteration plus the initial error
    n_iter: int


def nmf_factorize(
    matrix: np.ndarray,
    rank: int,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> NmfResult:
    """Multiplicative-update NMF minimizing the Frobenius reconstruction error.

    The update rule never increases the objective, which the error history
    exposes for verification.  Stops after `iters` updates or when the
    relative error improvement falls below `tol`.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("co-activation matrix must be square")
    if np.any(m < 0):
        raise ValueError("co-activation matrix must be non-negative")
    t = m.shape[0]
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank > t:
        raise ValueError(f"rank {rank} exceeds matrix size {t}")

    rng = np.random.default_rng(seed)
    w = rng.random((t, rank)) + 1e-3
    h = rng.random((rank, t)) + 1e-3

    def frob(w_, h_):
        # np.linalg.norm's own arithmetic, without its per-call dispatch
        residual = (m - w_ @ h_).ravel()
        return math.sqrt(residual.dot(residual))

    err = frob(w, h)
    history = [err]
    n_iter = 0
    for n_iter in range(1, iters + 1):
        h *= (w.T @ m) / (w.T @ w @ h + _EPS)
        w *= (m @ h.T) / (w @ h @ h.T + _EPS)
        new_err = frob(w, h)
        history.append(new_err)
        if err > 0 and (err - new_err) / err < tol:
            err = new_err
            break
        err = new_err
    return NmfResult(w=w, h=h, err_history=history, n_iter=n_iter)


@dataclass(frozen=True)
class Cluster:
    id: int
    tool_ids: tuple[str, ...]
    theme: str
    example_id: str
    example_tokens: tuple[int, ...]


@dataclass(frozen=True)
class CachedLeaf:
    """A cached planner stream: the tool set's `ClusterPlan.leaf`, then the example retrieval ranks first for a query of it.

    `example_id` is empty, and `example_tokens` too, when no example is
    eligible for the tool set.
    """

    tools: tuple[str, ...]
    example_id: str
    example_tokens: tuple[int, ...]


class PlanError(ValueError):
    """A plan document failed schema validation."""


_CLUSTER = shapes.Object(
    {"id": shapes.INT, "tools": shapes.STRINGS, "theme": shapes.STR, "example_id": shapes.STR, "example_tokens": shapes.TOKEN_IDS}
)
_SINGLE = shapes.Object({"tool": shapes.STR, "example_id": shapes.STR, "example_tokens": shapes.TOKEN_IDS})
_LEAF = shapes.Object({"tools": shapes.STRINGS, "example_id": shapes.STR, "example_tokens": shapes.TOKEN_IDS})
# Fields of the formats older build-plans wrote; a plan holding one is refused.
_OLDER_FIELDS = ("cached_combinations", "cached_tool_sets")
_PLAN = shapes.Object(
    {
        "clusters": shapes.ListOf(_CLUSTER),
        "order": shapes.ListOf(shapes.INT, "a list of cluster ids"),
        "single_examples": shapes.ListOf(_SINGLE),
        "cached_leaves": shapes.ListOf(_LEAF),
    },
    {"provenance": shapes.OBJECT, "draft_table": shapes.OBJECT},
)


@dataclass(frozen=True)
class ClusterPlan:
    """Ordered clusters, each tool's single-tool example, and the budgeted set of cached leaves.

    `clusters` is stored in plan order.  `single_examples` maps a tool id to
    the (id, tokens) of its single-tool example; a tool without one is
    absent.  `cached_leaves` holds the streams the greedy selection picked,
    in pick order, each with its tool set as sorted tool ids; two may share
    a tool set.  The static head is always cached.  `draft_table`, when
    present, is the planner's second draft table, after its prompt's.
    """

    clusters: tuple[Cluster, ...]
    single_examples: dict[str, tuple[str, tuple[int, ...]]] = field(default_factory=dict)
    cached_leaves: tuple[CachedLeaf, ...] = ()
    provenance: dict = field(default_factory=dict)
    draft_table: NGramLUT | None = None

    def __post_init__(self):
        known = {t for c in self.clusters for t in c.tool_ids}
        tool_sets = [leaf.tools for leaf in self.cached_leaves]
        for tools in (*tool_sets, tuple(self.single_examples)):
            unknown = sorted(set(tools) - known)
            if unknown:
                raise ValueError(f"tool '{unknown[0]}' is in no cluster")
        for tools in tool_sets:
            if not tools or list(tools) != sorted(set(tools)):
                raise ValueError(f"tool set {list(tools)} is not a non-empty list of distinct tool ids in sorted order")

    def position(self, cluster_id: int) -> int:
        for i, c in enumerate(self.clusters):
            if c.id == cluster_id:
                return i
        raise KeyError(cluster_id)

    def cluster_by_id(self, cluster_id: int) -> Cluster:
        return self.clusters[self.position(cluster_id)]

    def activation_sequence(self, sample_tools) -> tuple[int, ...]:
        """Ids of clusters containing at least one of the tools, in plan order."""
        tools = set(sample_tools)
        return tuple(c.id for c in self.clusters if tools & set(c.tool_ids))

    def leaf(self, tools) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The two token runs a planner prompt retrieving `tools` lays out after its static head.

        First the examples of the activated clusters in plan order, then the
        single-tool examples of `tools` in tool-id order (a tool without one
        adds nothing).  Both depend on the tool set alone, so the static head
        followed by them opens each cache key of the tool set.
        """
        clustered = chain.from_iterable(self.cluster_by_id(c).example_tokens for c in self.activation_sequence(tools))
        singles = chain.from_iterable(self.single_examples[t][1] for t in sorted(tools) if t in self.single_examples)
        return tuple(clustered), tuple(singles)

    def to_json(self) -> str:
        doc = {
            "clusters": [
                {
                    "id": c.id,
                    "tools": list(c.tool_ids),
                    "theme": c.theme,
                    "example_id": c.example_id,
                    "example_tokens": list(c.example_tokens),
                }
                for c in self.clusters
            ],
            "order": [c.id for c in self.clusters],
            "single_examples": [
                {"tool": tool, "example_id": ex_id, "example_tokens": list(tokens)}
                for tool, (ex_id, tokens) in sorted(self.single_examples.items())
            ],
            "cached_leaves": [
                {"tools": list(leaf.tools), "example_id": leaf.example_id, "example_tokens": list(leaf.example_tokens)}
                for leaf in self.cached_leaves
            ],
            "provenance": self.provenance,
        }
        if self.draft_table is not None:
            doc["draft_table"] = self.draft_table.to_dict()
        # Compact separators keep json's C encoder; `indent` would not.
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str, where: str = "plan") -> "ClusterPlan":
        """Parse a `to_json` document; a document of another shape, or of an older format, raises PlanError."""
        doc = shapes.parse_json(text, shapes.OBJECT, where, PlanError)
        # Not a misfit the shape would name: it ignores fields it does not declare.
        for name in _OLDER_FIELDS:
            if name in doc:
                raise PlanError(f"{where} holds {name}, the format of an older build-plan: re-run build-plan")
        shapes.check(doc, _PLAN, where, PlanError)
        by_id = {}
        for rec in doc["clusters"]:
            by_id[rec["id"]] = Cluster(
                id=rec["id"],
                tool_ids=tuple(rec["tools"]),
                theme=rec["theme"],
                example_id=rec["example_id"],
                example_tokens=tuple(rec["example_tokens"]),
            )
        unknown = [cid for cid in doc["order"] if cid not in by_id]
        if unknown:
            raise PlanError(f"{where} field 'order' names unknown cluster id {unknown[0]}")
        table = doc.get("draft_table")
        if table is not None:
            table = NGramLUT.from_dict(table, f"{where} draft_table", PlanError)
        singles = {rec["tool"]: (rec["example_id"], tuple(rec["example_tokens"])) for rec in doc["single_examples"]}
        try:
            return cls(
                clusters=tuple(by_id[cid] for cid in doc["order"]),
                single_examples=singles,
                cached_leaves=tuple(
                    CachedLeaf(tuple(rec["tools"]), rec["example_id"], tuple(rec["example_tokens"])) for rec in doc["cached_leaves"]
                ),
                provenance=doc.get("provenance", {}),
                draft_table=table,
            )
        except ValueError as exc:  # a tool set out of order, or a tool in no cluster
            raise PlanError(f"{where}: {exc}") from None

    @classmethod
    def load(cls, path) -> "ClusterPlan":
        return cls.from_json(Path(path).read_text(), where=f"plan {path}")


def assign_clusters(w: np.ndarray, matrix: CoactivationMatrix) -> dict[int, list[str]]:
    """Partition tools by dominant NMF factor.

    Tool t joins factor argmax_k W[t, k] (ties resolve to the lowest factor
    index).  A tool that never co-activates (all-zero matrix row) gets its own
    singleton cluster instead of an arbitrary argmax over noise.
    """
    groups: dict[int, list[str]] = {}
    next_singleton = w.shape[1]
    for row, tool_id in enumerate(matrix.tool_ids):
        if matrix.marginal(tool_id) == 0:
            groups.setdefault(next_singleton, []).append(tool_id)
            next_singleton += 1
        else:
            k = int(np.argmax(w[row]))
            groups.setdefault(k, []).append(tool_id)
    return {cid: sorted(tools) for cid, tools in groups.items()}


def label_theme(tool_ids, registry: ToolRegistry) -> str:
    """Modal theme of the member tools; ties pick the lexicographically smaller."""
    counts: dict[str, int] = {}
    for tool_id in tool_ids:
        theme = registry[tool_id].theme
        counts[theme] = counts.get(theme, 0) + 1
    best = max(counts.values())
    return min(theme for theme, c in counts.items() if c == best)


def choose_cluster_example(
    tool_ids,
    examples: list[ToolUseExample],
    cluster_id: int,
) -> tuple[str, tuple[int, ...]]:
    """The example attached to a cluster in the static prompt region.

    Prefers the lowest-id database example whose tool set equals the cluster
    exactly; otherwise synthesizes one by concatenating, per member tool, its
    single-tool example (or, failing that, the lowest-id example mentioning
    the tool).
    """
    tool_set = frozenset(tool_ids)
    exact = sorted((ex for ex in examples if ex.tools == tool_set), key=lambda e: e.id)
    if exact:
        return exact[0].id, exact[0].example_tokens
    pieces: list[int] = []
    for tool_id in sorted(tool_set):
        singles = sorted((ex for ex in examples if ex.tools == frozenset({tool_id})), key=lambda e: e.id)
        if not singles:
            singles = sorted((ex for ex in examples if tool_id in ex.tools), key=lambda e: e.id)
        if singles:
            pieces.extend(singles[0].example_tokens)
    return f"synthetic:{cluster_id}", tuple(pieces)


def order_clusters(groups: dict[int, list[str]], registry: ToolRegistry, examples: list[ToolUseExample]) -> tuple[Cluster, ...]:
    """Build Cluster records and sort them into the fixed total order.

    Clusters sharing a theme are adjacent; within a theme group the raw
    cluster id decides.  Theme group order follows the registry's declared
    theme list.
    """
    clusters = []
    for cid, tools in groups.items():
        theme = label_theme(tools, registry)
        ex_id, ex_tokens = choose_cluster_example(tools, examples, cid)
        clusters.append(
            Cluster(id=cid, tool_ids=tuple(tools), theme=theme, example_id=ex_id, example_tokens=ex_tokens)
        )
    clusters.sort(key=lambda c: (registry.theme_rank(c.theme), c.id))
    return tuple(clusters)


def choose_single_example(tool_id: str, examples: list[ToolUseExample]) -> ToolUseExample | None:
    """The single-tool example of a tool, or its double-tool substitute.

    A few tools have no single-tool example in the database; for those the
    lowest-id two-tool example mentioning the tool stands in.
    """
    singles = sorted((ex for ex in examples if ex.tools == frozenset({tool_id})), key=lambda e: e.id)
    if singles:
        return singles[0]
    doubles = sorted((ex for ex in examples if tool_id in ex.tools and len(ex.tools) == 2), key=lambda e: e.id)
    return doubles[0] if doubles else None


def coverage(streams, keys) -> int:
    """Leading tokens of `streams` that cached `keys` serve, summed.

    Each stream counts its longest common prefix with any key, as the
    store's longest-prefix match serves it.  Selection does not call this;
    it is the brute-force oracle the tests check against.
    """
    keys = [tuple(k) for k in keys]
    return sum(max((common_head(tuple(s), k) for k in keys), default=0) for s in streams)


def select_combinations(budget: int, leaves) -> list:
    """Greedy selection of cached streams under a count budget.

    `leaves` holds one (key, stream) pair per training query, as
    `sample_leaves` makes them; a key always comes with the same stream.  The
    candidates are the distinct keys.  Each round takes the candidate that
    adds the most covered tokens (`coverage` of every query's stream by the
    picked candidates' streams); ties prefer the shorter stream, then the
    smaller key.  Returns the picks in pick order: at most `budget`, and none
    that adds nothing.

    In lexicographic order the common prefix of two streams is the least
    common prefix of the neighbours between them, so one pass over
    neighbours gives every pair's, and each round's gains are one matrix
    product over what each candidate would add to each stream.  Counts are
    integers well inside float64's exact range, so the product is exact.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    weights = Counter(key for key, _ in leaves)
    streams = {key: tuple(stream) for key, stream in leaves}
    ids = sorted(streams, key=streams.get)
    n = len(ids)
    neighbours = np.array([common_head(streams[a], streams[b]) for a, b in zip(ids, ids[1:])], dtype=np.int64)
    shared = np.diag(np.array([len(streams[t]) for t in ids], dtype=np.int64))
    for i in range(n - 1):
        shared[i, i + 1:] = np.minimum.accumulate(neighbours[i:])
    shared = np.maximum(shared, shared.T).astype(float)
    count = np.array([weights[t] for t in ids], dtype=float)
    tie = {i: (len(streams[t]), t) for i, t in enumerate(ids)}

    covered = np.zeros(n)  # tokens of each stream served so far
    adds = shared.copy()  # tokens of stream i that candidate j would add: max(shared - covered, 0)
    chosen = []
    while len(chosen) < budget:
        gains = count @ adds
        best = gains.max(initial=0)
        if best <= 0:
            break
        pick = min(np.flatnonzero(gains == best), key=tie.get)
        chosen.append(ids[pick])
        served = np.flatnonzero(shared[:, pick] > covered)  # the streams the pick serves further
        covered[served] = shared[served, pick]
        adds[served] = np.maximum(shared[served] - covered[served, None], 0)
    return chosen


def sample_leaves(plan: ClusterPlan, samples, top_examples) -> list[tuple[tuple[tuple[str, ...], str], tuple[int, ...]]]:
    """Each sample's candidate, as (sorted tool set, example id), and its stream.

    The stream is the `plan.leaf` of the tool set as one run, then the
    tokens of the sample's top example.  `top_examples` holds each sample's
    top example for its own tool set, or None, as `ToolRag.top_examples`
    ranks them; without one the id is empty and the stream is the leaf.  The
    samples of one candidate share one stream.
    """
    leaves: dict[tuple[str, ...], tuple[int, ...]] = {}
    pairs: dict[tuple[tuple[str, ...], str], tuple] = {}
    out = []
    for sample, example in zip(samples, top_examples, strict=True):
        key = tuple(sorted(sample.gt_tools)), example.id if example else ""
        pair = pairs.get(key)
        if pair is None:
            tools = key[0]
            if tools not in leaves:
                leaves[tools] = tuple(chain.from_iterable(plan.leaf(tools)))
            pair = pairs[key] = key, leaves[tools] + (example.example_tokens if example else ())
        out.append(pair)
    return out


def build_plan(
    matrix: CoactivationMatrix,
    registry: ToolRegistry,
    examples: list[ToolUseExample],
    samples,
    top_examples,
    budget: int,
    rank: int = DEFAULT_RANK,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    provenance: dict | None = None,
    draft_table: NGramLUT | None = None,
) -> ClusterPlan:
    """Run the full offline pipeline and return an immutable plan carrying `draft_table`.

    `top_examples` holds each sample's top example for its own tool set (see `sample_leaves`).
    """
    rank = min(rank, matrix.size)
    result = nmf_factorize(matrix.counts, rank=rank, iters=iters, seed=seed, tol=tol)
    groups = assign_clusters(result.w, matrix)
    clusters = order_clusters(groups, registry, examples)
    ordered_ids = [c.id for c in clusters]
    singles = {t: choose_single_example(t, examples) for t in registry.tool_ids()}
    singles = {t: (ex.id, ex.example_tokens) for t, ex in singles.items() if ex is not None}
    interim = ClusterPlan(clusters=clusters, single_examples=singles)
    picks = select_combinations(budget, sample_leaves(interim, samples, top_examples))
    tokens = {example.id: example.example_tokens for example in top_examples if example}
    prov = dict(provenance or {})
    prov.update(
        {
            "seed": seed,
            "rank": rank,
            "iters": iters,
            "tol": tol,
            "budget": budget,
            "nmf_iterations_run": result.n_iter,
            "order": ordered_ids,
        }
    )
    leaves = tuple(CachedLeaf(tools, example_id, tokens.get(example_id, ())) for tools, example_id in picks)
    return dataclasses.replace(interim, cached_leaves=leaves, provenance=prov, draft_table=draft_table)

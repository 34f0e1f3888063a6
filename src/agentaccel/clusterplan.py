"""Offline cache planning: tool clustering, ordering, and prefix selection.

Pipeline: factorize the tool co-activation matrix with NMF, partition tools
by their dominant factor, label each cluster with its modal theme, impose a
fixed total order (theme groups first, cluster id second), then greedily pick
the cluster-combination prefixes whose cached KV would cover the most
activation sequences in the training data, under a fixed budget.

Everything is deterministic given (matrix, rank, seed, tol), so a plan can be
rebuilt byte-identically from its provenance block.  A plan may also carry
the planner's offline draft table (`exspec.NGramLUT`), which `run` drafts
from when a prompt's own table misses.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import shapes
from .corpus import CoactivationMatrix, ToolRegistry, ToolUseExample
from .exspec import NGramLUT

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
        return float(np.linalg.norm(m - w_ @ h_))

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


class PlanError(ValueError):
    """A plan document failed schema validation."""


_CLUSTER = shapes.Object(
    {"id": shapes.INT, "tools": shapes.STRINGS, "theme": shapes.STR, "example_id": shapes.STR, "example_tokens": shapes.TOKEN_IDS}
)
_CLUSTER_IDS = shapes.ListOf(shapes.INT, "a list of cluster ids")
_PLAN = shapes.Object(
    {"clusters": shapes.ListOf(_CLUSTER), "order": _CLUSTER_IDS, "cached_combinations": shapes.ListOf(_CLUSTER_IDS)},
    {"provenance": shapes.OBJECT, "draft_table": shapes.OBJECT},
)


@dataclass(frozen=True)
class ClusterPlan:
    """Ordered clusters plus the budgeted set of cached combination prefixes.

    `clusters` is stored in plan order.  `cached_combinations` holds the
    prefixes returned by the greedy selection, as tuples of cluster ids in
    plan order; the empty prefix is always implicitly cached.
    `draft_table`, when present, is the planner's backup draft table.
    """

    clusters: tuple[Cluster, ...]
    cached_combinations: tuple[tuple[int, ...], ...]
    provenance: dict = field(default_factory=dict)
    draft_table: NGramLUT | None = None

    def __post_init__(self):
        positions = {c.id: i for i, c in enumerate(self.clusters)}
        for combo in self.cached_combinations:
            pos = [positions[cid] for cid in combo]
            if pos != sorted(pos) or len(set(pos)) != len(pos):
                raise ValueError(f"combination {combo} does not respect plan order")

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
            "cached_combinations": [list(combo) for combo in self.cached_combinations],
            "provenance": self.provenance,
        }
        if self.draft_table is not None:
            doc["draft_table"] = self.draft_table.to_dict()
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str, where: str = "plan") -> "ClusterPlan":
        """Parse a `to_json` document; a document of another shape raises PlanError."""
        doc = shapes.parse_json(text, _PLAN, where, PlanError)
        by_id = {}
        for rec in doc["clusters"]:
            by_id[rec["id"]] = Cluster(
                id=rec["id"],
                tool_ids=tuple(rec["tools"]),
                theme=rec["theme"],
                example_id=rec["example_id"],
                example_tokens=tuple(rec["example_tokens"]),
            )
        for key, combos in (("order", [doc["order"]]), ("cached_combinations", doc["cached_combinations"])):
            unknown = [cid for combo in combos for cid in combo if cid not in by_id]
            if unknown:
                raise PlanError(f"{where} field '{key}' names unknown cluster id {unknown[0]}")
        table = doc.get("draft_table")
        if table is not None:
            table = NGramLUT.from_dict(table, f"{where} draft_table", PlanError)
        clusters = tuple(by_id[cid] for cid in doc["order"])
        combos = tuple(tuple(c) for c in doc["cached_combinations"])
        try:
            return cls(clusters=clusters, cached_combinations=combos, provenance=doc.get("provenance", {}), draft_table=table)
        except ValueError as exc:  # a combination out of plan order
            raise PlanError(f"{where} field 'cached_combinations': {exc}") from None

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


def coverage(sequences, combos) -> int:
    """Total cached-prefix length over all activation sequences.

    Each sequence contributes the length of the longest element of
    `combos` (plus the empty prefix) that is a prefix of it.  Selection does
    not call this; it is the brute-force oracle the tests check against.
    """
    cached = set(tuple(c) for c in combos)
    total = 0
    for seq in sequences:
        seq = tuple(seq)
        for length in range(len(seq), 0, -1):
            if seq[:length] in cached:
                total += length
                break
    return total


def prefix_counts(sequences) -> Counter:
    """Number of sequences starting with each prefix, over the non-empty prefix closure."""
    counts: Counter = Counter()
    for seq in sequences:
        seq = tuple(seq)
        counts.update(seq[:length] for length in range(1, len(seq) + 1))
    return counts


def select_combinations(budget: int, sequences) -> list[tuple[int, ...]]:
    """Greedy prefix selection under a cluster-combination budget.

    Candidates are prefixes observed in the dataset; a prefix is eligible in
    a round only if it is a singleton or its parent (the prefix minus its
    last cluster) was already selected.  Each round takes the candidate with
    the largest coverage gain; ties prefer shorter prefixes, then
    lexicographically smaller cluster-id tuples.  Returns the selections in
    pick order (at most `budget` of them; fewer if candidates run out).

    Selections stay prefix-closed, so an eligible prefix's gain is exactly
    its prefix count and never changes: each round pops the best
    `(-count, length, prefix)` off a heap over the eligible frontier, then
    pushes the pick's children.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    counts = prefix_counts(sequences)
    children: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
    for p in counts:
        children[p[:-1]].append(p)

    frontier = [(-counts[p], len(p), p) for p in children[()]]
    heapq.heapify(frontier)
    chosen: list[tuple[int, ...]] = []
    while frontier and len(chosen) < budget:
        _, _, best = heapq.heappop(frontier)
        chosen.append(best)
        for child in children[best]:
            heapq.heappush(frontier, (-counts[child], len(child), child))
    return chosen


def build_plan(
    matrix: CoactivationMatrix,
    registry: ToolRegistry,
    examples: list[ToolUseExample],
    samples,
    budget: int,
    rank: int = DEFAULT_RANK,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    provenance: dict | None = None,
    draft_table: NGramLUT | None = None,
) -> ClusterPlan:
    """Run the full offline pipeline and return an immutable plan carrying `draft_table`."""
    rank = min(rank, matrix.size)
    result = nmf_factorize(matrix.counts, rank=rank, iters=iters, seed=seed, tol=tol)
    groups = assign_clusters(result.w, matrix)
    clusters = order_clusters(groups, registry, examples)
    ordered_ids = [c.id for c in clusters]
    interim = ClusterPlan(clusters=clusters, cached_combinations=())
    sequences = [interim.activation_sequence(s.gt_tools) for s in samples]
    combos = select_combinations(budget, sequences)
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
    return ClusterPlan(clusters=clusters, cached_combinations=tuple(combos), provenance=prov, draft_table=draft_table)

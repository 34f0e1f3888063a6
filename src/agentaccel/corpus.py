"""Tool registries, query datasets, tool-use example databases, co-activation.

File formats:
  registry     JSON   {"themes": [...], "tools": [{"id","name","theme",
                       "description","guidelines"}]}
  dataset      JSONL  {"query", "tools": [id], "plan": {"nodes": [{"call",
                       "args"}], "edges": [[i,j]]}}
  example db   JSONL  {"id", "example_text", "tools": [id]}

All collections are immutable after loading and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import shapes
from .tokenizer import Tokenizer


class LoadError(ValueError):
    """Schema or referential-integrity violation in an input file."""


@dataclass(frozen=True)
class Tool:
    id: str
    name: str
    theme: str
    description_tokens: tuple[int, ...]
    guideline_tokens: tuple[int, ...]


class ToolRegistry:
    """Tools keyed by id, with a declared, ordered theme set."""

    def __init__(self, themes: list[str], tools: list[Tool]):
        self.themes: tuple[str, ...] = tuple(themes)
        self.tools: dict[str, Tool] = {}
        for tool in tools:
            if tool.id in self.tools:
                raise ValueError(f"duplicate tool id '{tool.id}'")
            if tool.theme not in self.themes:
                raise ValueError(f"tool '{tool.id}' has undeclared theme '{tool.theme}'")
            self.tools[tool.id] = tool

    def __len__(self) -> int:
        return len(self.tools)

    def __contains__(self, tool_id: str) -> bool:
        return tool_id in self.tools

    def __getitem__(self, tool_id: str) -> Tool:
        return self.tools[tool_id]

    def tool_ids(self) -> list[str]:
        """All tool ids in ascending order (the canonical prompt order)."""
        return sorted(self.tools)

    def theme_rank(self, theme: str) -> int:
        return self.themes.index(theme)


@dataclass(frozen=True)
class PlanNode:
    call: str
    args: tuple[str, ...]

    def ref_indices(self) -> list[int]:
        """Indices of prior plan steps referenced via "$k" arguments."""
        refs = []
        for arg in self.args:
            if arg.startswith("$") and arg[1:].isdigit():
                refs.append(int(arg[1:]))
        return refs


@dataclass(frozen=True)
class PlanDAG:
    nodes: tuple[PlanNode, ...]
    edges: tuple[tuple[int, int], ...]

    def validate(self) -> None:
        n = len(self.nodes)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for {n} nodes")
        for i, node in enumerate(self.nodes):
            for k in node.ref_indices():
                if not (1 <= k <= n):
                    raise ValueError(f"node {i} references undefined step ${k}")
        if self._has_cycle():
            raise ValueError("plan graph contains a cycle")

    def _has_cycle(self) -> bool:
        n = len(self.nodes)
        indeg = [0] * n
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            adj[a].append(b)
            indeg[b] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for v in adj[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        return seen != n


@dataclass(frozen=True)
class QuerySample:
    query_text: str
    query_tokens: tuple[int, ...]
    gt_tools: frozenset[str]
    gt_plan: PlanDAG


@dataclass(frozen=True, eq=False)
class ToolUseExample:
    id: str
    example_text: str
    example_tokens: tuple[int, ...]
    tools: frozenset[str]
    query_embedding: np.ndarray = field(repr=False)


def render_plan(plan: PlanDAG) -> str:
    """Canonical textual rendering of a plan, as the planner would emit it."""
    lines = []
    for i, node in enumerate(plan.nodes, start=1):
        args = " , ".join(node.args)
        lines.append(f"{i} . {node.call} ( {args} )")
    return " ; ".join(lines) + " ; end of plan"


_TOOL = shapes.Object(dict.fromkeys(("id", "name", "theme", "description", "guidelines"), shapes.STR))
# Each tool is checked on its own, so that an error names its record.
_REGISTRY = shapes.Object({"themes": shapes.STRINGS, "tools": shapes.Shape("a list", list)})
_SAMPLE = shapes.Object({"query": shapes.STR, "tools": shapes.STRINGS, "plan": shapes.OBJECT})
# A sample's plan is checked on its own, so that an error names the field.
_PLAN = shapes.Object(
    {"nodes": shapes.ListOf(shapes.Object({"call": shapes.STR}, {"args": shapes.STRINGS}))},
    {"edges": shapes.ListOf(shapes.Check(shapes.ListOf(shapes.INT), lambda e: len(e) == 2, "a [from, to] pair of node indices"))},
)
_EXAMPLE = shapes.Object({"id": shapes.STR, "example_text": shapes.STR, "tools": shapes.STRINGS})


def load_registry(path, tokenizer: Tokenizer) -> ToolRegistry:
    doc = shapes.load_json(path, _REGISTRY, f"registry {path}", LoadError)
    tools = []
    for idx, rec in enumerate(doc["tools"]):
        where = f"{path} record {idx}"
        shapes.check(rec, _TOOL, where, LoadError)
        desc = tuple(tokenizer.tokenize(rec["description"]))
        guide = tuple(tokenizer.tokenize(rec["guidelines"]))
        if not desc:
            raise LoadError(f"{where} field 'description': empty description")
        if not guide:
            raise LoadError(f"{where} field 'guidelines': empty guidelines")
        tools.append(
            Tool(
                id=rec["id"],
                name=rec["name"],
                theme=rec["theme"],
                description_tokens=desc,
                guideline_tokens=guide,
            )
        )
    try:
        return ToolRegistry(doc["themes"], tools)
    except ValueError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def read_file(path) -> bytes:
    """The bytes of an input file; an unreadable one ends in a LoadError."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise LoadError(f"{path}: unreadable file: {exc}") from exc


def _records(path, shape: shapes.Shape, data: bytes | None = None):
    """Each non-blank line's location and JSON record, checked against `shape`; from `data` when the file was already read."""
    text = (read_file(path) if data is None else data).decode()
    for idx, line in enumerate(text.splitlines()):
        if line.strip():
            where = f"{path} record {idx}"
            yield where, shapes.parse_json(line, shape, where, LoadError)


def _check_tools(tools: frozenset, registry: ToolRegistry, where: str) -> None:
    for tool_id in sorted(tools):
        if tool_id not in registry:
            raise LoadError(f"{where} field 'tools': unknown tool '{tool_id}'")


def _parse_plan(raw: dict, registry: ToolRegistry, where: str) -> PlanDAG:
    where += " field 'plan'"
    shapes.check(raw, _PLAN, where, LoadError)
    for node in raw["nodes"]:
        if node["call"] not in registry:
            raise LoadError(f"{where}: plan calls unknown tool '{node['call']}'")
    nodes = tuple(PlanNode(call=node["call"], args=tuple(node.get("args", ()))) for node in raw["nodes"])
    plan = PlanDAG(nodes=nodes, edges=tuple(map(tuple, raw.get("edges", ()))))
    try:
        plan.validate()
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc
    return plan


def load_dataset(path, registry: ToolRegistry, tokenizer: Tokenizer, data: bytes | None = None) -> list[QuerySample]:
    """The samples of a dataset file, or of its bytes `data` when the caller already read it."""
    samples = []
    for where, rec in _records(path, _SAMPLE, data):
        tools = frozenset(rec["tools"])
        _check_tools(tools, registry, where)
        plan = _parse_plan(rec["plan"], registry, where)
        for node in plan.nodes:
            if node.call not in tools:
                raise LoadError(f"{where} field 'plan': plan calls '{node.call}' which is absent from the sample's tool set")
        query = rec["query"]
        samples.append(
            QuerySample(
                query_text=query,
                query_tokens=tuple(tokenizer.tokenize(query)),
                gt_tools=tools,
                gt_plan=plan,
            )
        )
    return samples


def load_example_texts(path) -> list[str]:
    """The `example_text` of every record of an example db, checked as `load_example_db` checks it."""
    return [rec["example_text"] for _, rec in _records(path, _EXAMPLE)]


def load_example_db(path, registry: ToolRegistry, tokenizer: Tokenizer, embedder) -> list[ToolUseExample]:
    """Load tool-use examples, computing each query embedding at load time.

    `embedder` is any object with an `embed(text) -> np.ndarray` method and a
    `dimension` attribute (see agentaccel.toolrag).
    """
    examples = []
    seen_ids: set[str] = set()
    for where, rec in _records(path, _EXAMPLE):
        ex_id, text = rec["id"], rec["example_text"]
        if ex_id in seen_ids:
            raise LoadError(f"{where} field 'id': duplicate example id '{ex_id}'")
        seen_ids.add(ex_id)
        tools = frozenset(rec["tools"])
        if not tools:
            raise LoadError(f"{where} field 'tools': example has empty tool set")
        _check_tools(tools, registry, where)
        vec = np.asarray(embedder.embed(text), dtype=float)
        if vec.shape != (embedder.dimension,):
            raise LoadError(f"{where}: embedding dimension mismatch")
        examples.append(
            ToolUseExample(
                id=ex_id,
                example_text=text,
                example_tokens=tuple(tokenizer.tokenize(text)),
                tools=tools,
                query_embedding=vec,
            )
        )
    return examples


class CoactivationMatrix:
    """Pairwise co-occurrence counts of tools across dataset samples.

    counts[x, y] is the number of samples whose ground-truth tool set
    contains both x and y; the diagonal holds per-tool activation counts.
    """

    def __init__(self, tool_ids: list[str], counts: np.ndarray):
        self.tool_ids = list(tool_ids)
        self.index = {t: i for i, t in enumerate(self.tool_ids)}
        self.counts = counts

    @property
    def size(self) -> int:
        return len(self.tool_ids)

    def count(self, x: str, y: str) -> int:
        return int(self.counts[self.index[x], self.index[y]])

    def marginal(self, x: str) -> int:
        i = self.index[x]
        return int(self.counts[i, i])

    def conditional(self, y: str, x: str) -> float:
        """P(y active | x active); defined as 0 when x was never observed."""
        m = self.marginal(x)
        if m == 0:
            return 0.0
        return self.count(x, y) / m


def build_coactivation(samples: list[QuerySample], registry: ToolRegistry) -> CoactivationMatrix:
    tool_ids = registry.tool_ids()
    index = {t: i for i, t in enumerate(tool_ids)}
    counts = np.zeros((len(tool_ids), len(tool_ids)), dtype=np.int64)
    for sample in samples:
        active = sorted(index[t] for t in sample.gt_tools)
        for i in active:
            for j in active:
                counts[i, j] += 1
    return CoactivationMatrix(tool_ids, counts)

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

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tokenizer import Tokenizer


class LoadError(ValueError):
    """Schema or referential-integrity violation in an input file."""

    def __init__(self, path, message: str, record: int | None = None, field_name: str | None = None):
        self.path = str(path)
        self.record = record
        self.field_name = field_name
        where = self.path
        if record is not None:
            where += f" record {record}"
        if field_name is not None:
            where += f" field '{field_name}'"
        super().__init__(f"{where}: {message}")


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


_KIND_NAMES = {str: "a string", list: "a list", dict: "a JSON object"}


def _require(record, key: str, path, idx: int | None, kind: type = object):
    """`record[key]`, which must exist and be a `kind`; `record` must be a JSON object."""
    if not isinstance(record, dict):
        raise LoadError(path, f"expected a JSON object holding '{key}'", record=idx)
    if key not in record:
        raise LoadError(path, "missing required field", record=idx, field_name=key)
    if not isinstance(record[key], kind):
        raise LoadError(path, f"expected {_KIND_NAMES[kind]}", record=idx, field_name=key)
    return record[key]


def _require_strings(record, key: str, path, idx: int | None) -> list[str]:
    """`record[key]`, which must be a list of strings."""
    values = _require(record, key, path, idx, list)
    if not all(isinstance(v, str) for v in values):
        raise LoadError(path, "expected a list of strings", record=idx, field_name=key)
    return values


def load_registry(path, tokenizer: Tokenizer) -> ToolRegistry:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(path, f"unreadable registry: {exc}") from exc
    if not isinstance(doc, dict):
        raise LoadError(path, "registry must be a JSON object")
    themes = _require_strings(doc, "themes", path, None)
    raw_tools = _require(doc, "tools", path, None, list)
    tools = []
    for idx, rec in enumerate(raw_tools):
        tool_id = _require(rec, "id", path, idx, str)
        theme = _require(rec, "theme", path, idx, str)
        if theme not in themes:
            raise LoadError(path, f"theme '{theme}' not declared", record=idx, field_name="theme")
        desc = tuple(tokenizer.tokenize(_require(rec, "description", path, idx, str)))
        guide = tuple(tokenizer.tokenize(_require(rec, "guidelines", path, idx, str)))
        if not desc:
            raise LoadError(path, "empty description", record=idx, field_name="description")
        if not guide:
            raise LoadError(path, "empty guidelines", record=idx, field_name="guidelines")
        tools.append(
            Tool(
                id=tool_id,
                name=_require(rec, "name", path, idx, str),
                theme=theme,
                description_tokens=desc,
                guideline_tokens=guide,
            )
        )
    try:
        return ToolRegistry(list(themes), tools)
    except ValueError as exc:
        raise LoadError(path, str(exc)) from exc


def _iter_jsonl(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise LoadError(path, f"unreadable file: {exc}") from exc
    for idx, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            yield idx, json.loads(line)
        except json.JSONDecodeError as exc:
            raise LoadError(path, f"invalid JSON: {exc}", record=idx) from exc


def _parse_plan(raw: dict, registry: ToolRegistry, path, idx: int) -> PlanDAG:
    nodes = []
    for node in _require(raw, "nodes", path, idx, list):
        call = _require(node, "call", path, idx, str)
        if call not in registry:
            raise LoadError(path, f"plan calls unknown tool '{call}'", record=idx, field_name="plan")
        args = node.get("args", [])
        if not isinstance(args, list):
            raise LoadError(path, "plan node args must be a list", record=idx, field_name="plan")
        nodes.append(PlanNode(call=call, args=tuple(str(a) for a in args)))
    try:
        edges = tuple((int(a), int(b)) for a, b in raw.get("edges", []))
    except (TypeError, ValueError) as exc:
        raise LoadError(path, "plan edges must be a list of [from, to] index pairs", record=idx, field_name="plan") from exc
    plan = PlanDAG(nodes=tuple(nodes), edges=edges)
    try:
        plan.validate()
    except ValueError as exc:
        raise LoadError(path, str(exc), record=idx, field_name="plan") from exc
    return plan


def load_dataset(path, registry: ToolRegistry, tokenizer: Tokenizer) -> list[QuerySample]:
    samples = []
    for idx, rec in _iter_jsonl(path):
        query = _require(rec, "query", path, idx, str)
        tools = frozenset(_require_strings(rec, "tools", path, idx))
        for tool_id in sorted(tools):
            if tool_id not in registry:
                raise LoadError(path, f"unknown tool '{tool_id}'", record=idx, field_name="tools")
        plan = _parse_plan(_require(rec, "plan", path, idx, dict), registry, path, idx)
        for node in plan.nodes:
            if node.call not in tools:
                raise LoadError(
                    path,
                    f"plan calls '{node.call}' which is absent from the sample's tool set",
                    record=idx,
                    field_name="plan",
                )
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
    return [_require(rec, "example_text", path, idx, str) for idx, rec in _iter_jsonl(path)]


def load_example_db(path, registry: ToolRegistry, tokenizer: Tokenizer, embedder) -> list[ToolUseExample]:
    """Load tool-use examples, computing each query embedding at load time.

    `embedder` is any object with an `embed(text) -> np.ndarray` method and a
    `dimension` attribute (see agentaccel.toolrag).
    """
    examples = []
    seen_ids: set[str] = set()
    for idx, rec in _iter_jsonl(path):
        ex_id = _require(rec, "id", path, idx, str)
        if ex_id in seen_ids:
            raise LoadError(path, f"duplicate example id '{ex_id}'", record=idx, field_name="id")
        seen_ids.add(ex_id)
        text = _require(rec, "example_text", path, idx, str)
        tools = frozenset(_require_strings(rec, "tools", path, idx))
        if not tools:
            raise LoadError(path, "example has empty tool set", record=idx, field_name="tools")
        for tool_id in sorted(tools):
            if tool_id not in registry:
                raise LoadError(path, f"unknown tool '{tool_id}'", record=idx, field_name="tools")
        vec = np.asarray(embedder.embed(text), dtype=float)
        if vec.shape != (embedder.dimension,):
            raise LoadError(path, "embedding dimension mismatch", record=idx)
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

"""Analytical latency model and pipeline replayer.

Stage model, per query:
  prefill   compute-bound:  2 * params * uncached_tokens / (TOPS * utilization)
  decode    bandwidth-bound: params_bytes / mem_bw per token; a k-token
            verification pass costs that times tax_curve(k)
  ssd_load  the exposed part of reading reused-prefix bytes at ssd bandwidth
  others    constant-time tool retrieval and tool execution

A served prefix is loaded in two parts.  Its query-independent head (the
planner's static head, the arbiter's guidelines: `weaver_static` tokens of
the trace) can be read as soon as the query arrives, while work that must
happen anyway runs: ToolRAG for the planner, the tool calls for the arbiter.
The rest (the combination tail) depends on what was retrieved and is read
after that work.  So a role's `ssd_load` is
`max(0, load(static) - overlapped stage) + load(rest)`, and each cell
records the hidden remainder as `ssd_load_hidden`, outside `total`; the
serial figure is `ssd_load + ssd_load_hidden`.

Replaying a trace produces one latency breakdown per optimization cell
(baseline, prompt reconstruction, speculative decode, both) from the same
per-query token accounting and decode statistics, so speedups are pure
functions of (trace, config).

This is the only module that prices decoding.  `exspec` counts rounds,
fallbacks and draft lengths; `decode_seconds` turns those counts into
seconds under a `TaxCurve`, the cost multiplier of a verification pass by
its width.

The shipped pipeline configuration charges verification passes at the ideal
(width-independent) cost.  The measured two-token tax is exposed separately
as `MEASURED_TAX` for the draft-model trade-off analysis, where it is the
whole point; see the calibration notes in the README for why the two
defaults differ.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import shapes
from .clusterplan import coverage, select_combinations
from .kvstore import ModelGeometry, kv_size

STAGES = (
    "toolrag",
    "planner_prefill",
    "planner_decode",
    "tool_exec",
    "arbiter_prefill",
    "arbiter_decode",
    "ssd_load",
)

CELLS = ("baseline", "pw", "es", "pw_es")

DEFAULT_TOOL_SECONDS = 0.4
DEFAULT_TOOLRAG_SECONDS = 0.66

# Single-token step cost is the unit; a k-token verification pass costs
# tax(k) units.  Only k=1 and k=2 are measured on the reference runtime;
# between configured points the curve interpolates linearly and beyond the
# last point it stays flat.
DEFAULT_TAX_POINTS = ((1, 1.0), (2, 1.86))


class TaxCurve:
    """Piecewise-linear multi-token tax: cost multiplier per pass width."""

    def __init__(self, points=DEFAULT_TAX_POINTS):
        pts = sorted((int(k), float(v)) for k, v in points)
        if not pts or pts[0][0] != 1:
            pts = [(1, 1.0)] + [p for p in pts if p[0] > 1]
        if pts[0][1] != 1.0:
            raise ValueError("tax_curve(1) must be 1.0")
        if any(k <= 0 for k, _ in pts):
            raise ValueError("pass widths must be positive")
        if any(v <= 0 for _, v in pts):
            raise ValueError("tax multipliers must be positive")
        self.points = tuple(pts)

    @classmethod
    def from_list(cls, doc) -> "TaxCurve":
        """The curve of a JSON list of `[width, multiplier]` pairs; another shape raises ValueError."""
        shapes.check(doc, _TAX_POINTS, "tax curve", ValueError)
        return cls(doc)

    def __call__(self, k: int) -> float:
        if k < 1:
            raise ValueError("pass width must be at least 1")
        pts = self.points
        if k >= pts[-1][0]:
            return pts[-1][1]
        for (k0, v0), (k1, v1) in zip(pts, pts[1:]):
            if k0 <= k <= k1:
                if k1 == k0:
                    return v0
                return v0 + (v1 - v0) * (k - k0) / (k1 - k0)
        return pts[0][1]


_TAX_POINT = shapes.Check(
    shapes.ListOf(shapes.NUMBER),
    lambda point: len(point) == 2 and type(point[0]) is int,
    "a [width, multiplier] pair with an integer width",
)
_TAX_POINTS = shapes.ListOf(_TAX_POINT, "a list of [width, multiplier] pairs")
IDEAL_TAX = TaxCurve([(1, 1.0)])  # multi-token pass costs the same as one token
MEASURED_TAX = TaxCurve(DEFAULT_TAX_POINTS)


class TraceError(ValueError):
    """Trace or configuration record failed schema validation."""


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    compute_tops: float  # INT8 tera-ops per second
    mem_bw: float        # bytes per second
    ssd_bw: float        # bytes per second
    prefill_utilization: float = 0.35

    def __post_init__(self):
        if min(self.compute_tops, self.mem_bw, self.ssd_bw) <= 0:
            raise ValueError("device rates must be positive")
        if not (0 < self.prefill_utilization <= 1):
            raise ValueError("prefill_utilization must be in (0, 1]")

    @classmethod
    def from_dict(cls, doc, name: str) -> "DeviceSpec":
        """The device of a document, named `name` unless the document names it; another shape raises ValueError."""
        shapes.check(doc, _DEVICE, "device", ValueError)
        return cls(
            name=doc.get("name", name),
            compute_tops=doc["compute_tops"],
            mem_bw=doc["mem_bw"],
            ssd_bw=doc["ssd_bw"],
            prefill_utilization=doc.get("prefill_utilization", 0.35),
        )


_DEVICE_RATES = dict.fromkeys(("compute_tops", "mem_bw", "ssd_bw"), shapes.NUMBER)
_DEVICE = shapes.Object(_DEVICE_RATES, {"name": shapes.STR, "prefill_utilization": shapes.NUMBER})


def _load_data_json(filename: str) -> dict:
    path = resources.files("agentaccel") / "data" / filename
    return json.loads(path.read_text())


def device_presets() -> dict[str, DeviceSpec]:
    doc = _load_data_json("devices.json")
    return {name: DeviceSpec.from_dict(spec, name) for name, spec in doc.items()}


def geometry_presets() -> dict[str, ModelGeometry]:
    doc = _load_data_json("geometries.json")
    return {name: ModelGeometry.from_dict(spec) for name, spec in doc.items()}


def prefill_latency(uncached_tokens: int, geometry: ModelGeometry, device: DeviceSpec) -> float:
    """Seconds to prefill the uncached portion of a prompt."""
    if uncached_tokens < 0:
        raise ValueError("token count must be non-negative")
    flops = 2.0 * geometry.params * uncached_tokens
    return flops / (device.compute_tops * 1e12 * device.prefill_utilization)


def decode_token_latency(geometry: ModelGeometry, device: DeviceSpec) -> float:
    """Seconds per autoregressive decode step (weight-read bound)."""
    return geometry.params_bytes / device.mem_bw


def ssd_load_latency(loaded_bytes: int, device: DeviceSpec) -> float:
    if loaded_bytes < 0:
        raise ValueError("byte count must be non-negative")
    return loaded_bytes / device.ssd_bw


def specdec_speedup(
    target_size: float,
    draft_size: float,
    alpha: float,
    n_draft: int,
    tax_curve: TaxCurve,
) -> float:
    """Projected decode speedup of draft-based speculation.

    Under per-token acceptance probability `alpha`, a round of `n_draft`
    drafts lands E = sum_i alpha^i accepted tokens plus the guaranteed
    corrected token.  The round costs n_draft sequential draft steps (scaled
    by model size, decode being bandwidth-bound) plus one verification pass
    over n_draft+1 tokens.  Passing the ideal tax curve gives the
    zero-overhead upper bound.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must be in [0, 1]")
    if n_draft < 1:
        raise ValueError("n_draft must be at least 1")
    if target_size <= 0 or draft_size < 0:
        raise ValueError("model sizes must be positive (draft may be 0)")
    expected_accepted = sum(alpha**i for i in range(1, n_draft + 1))
    draft_cost = n_draft * (draft_size / target_size)
    round_cost = draft_cost + tax_curve(n_draft + 1)
    tokens_per_round = expected_accepted + 1.0
    return tokens_per_round / round_cost


# The counts of a `DecodeStats.to_dict()` that `decode_seconds` reads.
_DECODE = shapes.Object({"rounds": shapes.COUNT, "fallbacks": shapes.COUNT, "draft_len": shapes.COUNT})
_ROLE_FIELDS = ("baseline_total", "baseline_uncacheable", "weaver_total", "weaver_uncacheable", "weaver_static", "output_tokens")
_ROLE = shapes.Object({**dict.fromkeys(_ROLE_FIELDS, shapes.COUNT), "decode": _DECODE})
# Each role is checked by `RoleTrace.from_dict`, so that an error names it.
_RECORD = shapes.Object({"query_id": shapes.STR, "tool_count": shapes.COUNT, "planner": shapes.OBJECT, "arbiter": shapes.OBJECT})


@dataclass
class RoleTrace:
    """Per-query token accounting and decode statistics for one LLM role."""

    baseline_total: int
    baseline_uncacheable: int
    weaver_total: int
    weaver_uncacheable: int
    weaver_static: int  # served tokens of the run-wide head, whose load can overlap ToolRAG or the tool calls
    output_tokens: int
    decode: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc, where: str) -> "RoleTrace":
        shapes.check(doc, _ROLE, where, TraceError)
        role = cls(**{k: doc[k] for k in _ROLE_FIELDS}, decode=dict(doc["decode"]))
        if role.baseline_uncacheable > role.baseline_total or role.weaver_uncacheable > role.weaver_total:
            raise TraceError(f"{where}: uncacheable tokens exceed prompt total")
        if role.weaver_static > role.loaded_tokens:
            raise TraceError(f"{where}: weaver_static exceeds the loaded tokens (weaver_total - weaver_uncacheable)")
        return role

    @property
    def loaded_tokens(self) -> int:
        """Tokens of the reconstructed prompt served from the cache."""
        return self.weaver_total - self.weaver_uncacheable

    def to_dict(self) -> dict:
        return {
            "baseline_total": self.baseline_total,
            "baseline_uncacheable": self.baseline_uncacheable,
            "weaver_total": self.weaver_total,
            "weaver_uncacheable": self.weaver_uncacheable,
            "weaver_static": self.weaver_static,
            "output_tokens": self.output_tokens,
            "decode": self.decode,
        }


@dataclass
class TraceRecord:
    query_id: str
    tool_count: int
    planner: RoleTrace
    arbiter: RoleTrace

    @classmethod
    def from_dict(cls, doc, where: str = "trace record") -> "TraceRecord":
        shapes.check(doc, _RECORD, where, TraceError)
        return cls(
            query_id=doc["query_id"],
            tool_count=doc["tool_count"],
            planner=RoleTrace.from_dict(doc["planner"], f"{where} planner"),
            arbiter=RoleTrace.from_dict(doc["arbiter"], f"{where} arbiter"),
        )

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "tool_count": self.tool_count,
            "planner": self.planner.to_dict(),
            "arbiter": self.arbiter.to_dict(),
        }


def load_trace(path) -> list[TraceRecord]:
    records = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        where = f"trace {path} line {number}"
        doc = shapes.parse_json(line, shapes.OBJECT, where, TraceError)
        if doc.get("kind") == "header":
            continue
        records.append(TraceRecord.from_dict(doc, where))
    if not records:
        raise TraceError(f"{path}: no trace records")
    return records


@dataclass
class SimConfig:
    device: DeviceSpec
    geometry: ModelGeometry
    verify_tax: TaxCurve = field(default_factory=lambda: IDEAL_TAX)
    tool_seconds: float = DEFAULT_TOOL_SECONDS
    toolrag_seconds: float = DEFAULT_TOOLRAG_SECONDS

    def __post_init__(self):
        # A negative stage would also hide more load than was read.
        if not (self.tool_seconds >= 0 and self.toolrag_seconds >= 0):
            raise ValueError("tool_seconds and toolrag_seconds must be non-negative")


@dataclass
class LatencyBreakdown:
    seconds: dict[str, float]
    ssd_load_hidden: float = 0.0  # load seconds overlapped with other stages, not in `total`

    def __post_init__(self):
        for stage in STAGES:
            self.seconds.setdefault(stage, 0.0)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def fractions(self) -> dict[str, float]:
        total = self.total
        if total == 0:
            return {stage: 0.0 for stage in STAGES}
        return {stage: self.seconds[stage] / total for stage in STAGES}

    def add(self, stage: str, value: float):
        self.seconds[stage] += value

    def to_dict(self) -> dict:
        return {
            "seconds": {s: self.seconds[s] for s in STAGES},
            "total": self.total,
            "fractions": self.fractions,
            "ssd_load_hidden": self.ssd_load_hidden,
        }


def decode_seconds(stats: dict, step_seconds: float, tax: TaxCurve) -> float:
    """Modeled seconds of one speculative decode, from its counts.

    `stats` is a `DecodeStats.to_dict()`, as a trace record's `decode`.  A
    drafting round is one verification pass over draft_len + 1 tokens and
    costs `step_seconds * tax(draft_len + 1)`; a fallback round is one plain
    step.  Missing, malformed or inconsistent counts raise TraceError.
    """
    shapes.check(stats, _DECODE, "decode stats", TraceError)
    rounds, fallbacks, draft_len = stats["rounds"], stats["fallbacks"], stats["draft_len"]
    drafting_rounds = rounds - fallbacks
    if drafting_rounds < 0:
        raise TraceError("decode stats: fallbacks exceed rounds")
    return drafting_rounds * (step_seconds * tax(draft_len + 1)) + fallbacks * step_seconds


def load_seconds(role: RoleTrace, overlapped: float, config: SimConfig) -> tuple[float, float]:
    """Exposed and hidden seconds of loading a role's served prefix.

    Its `weaver_static` head is read while the `overlapped` seconds of other
    work run; the rest is read after them.  Exposed is
    `max(0, load(static) - overlapped) + load(rest)`; hidden is what the
    overlap saved.
    """
    def load(tokens: int) -> float:
        return ssd_load_latency(kv_size(tokens, config.geometry), config.device)

    static = load(role.weaver_static)
    hidden = min(static, overlapped)
    return static - hidden + load(role.loaded_tokens - role.weaver_static), hidden


def _cell_breakdown(records: list[TraceRecord], config: SimConfig, reconstructed: bool, speculative: bool) -> LatencyBreakdown:
    bd = LatencyBreakdown(seconds={})
    t1 = decode_token_latency(config.geometry, config.device)
    for rec in records:
        tool_exec = rec.tool_count * config.tool_seconds
        bd.add("toolrag", config.toolrag_seconds)
        bd.add("tool_exec", tool_exec)
        for role, prefix, overlapped in ((rec.planner, "planner", config.toolrag_seconds), (rec.arbiter, "arbiter", tool_exec)):
            uncached = role.weaver_uncacheable if reconstructed else role.baseline_uncacheable
            bd.add(f"{prefix}_prefill", prefill_latency(uncached, config.geometry, config.device))
            if speculative:
                bd.add(f"{prefix}_decode", decode_seconds(role.decode, t1, config.verify_tax))
            else:
                bd.add(f"{prefix}_decode", role.output_tokens * t1)
            if reconstructed:
                exposed, hidden = load_seconds(role, overlapped, config)
                bd.add("ssd_load", exposed)
                bd.ssd_load_hidden += hidden
    return bd


@dataclass
class PipelineReport:
    cells: dict[str, LatencyBreakdown]
    speedups: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "cells": {name: bd.to_dict() for name, bd in self.cells.items()},
            "speedups": self.speedups,
        }

    def to_csv(self) -> str:
        return report_csv(self.to_dict())


def report_csv(doc: dict) -> str:
    """CSV rendering of a report dict, as built by `PipelineReport.to_dict`.

    Each cell's `ssd_load_hidden` follows its total, with no fraction: it is
    not part of the total.  Speedups are listed by name, the order of the
    saved (sort_keys) report.
    """
    lines = ["cell,stage,seconds,fraction"]
    for name in CELLS:
        cell = doc["cells"][name]
        for stage in STAGES:
            lines.append(f"{name},{stage},{cell['seconds'][stage]:.9g},{cell['fractions'][stage]:.9g}")
        lines.append(f"{name},total,{cell['total']:.9g},1")
        lines.append(f"{name},ssd_load_hidden,{cell['ssd_load_hidden']:.9g},")
    for name, value in sorted(doc["speedups"].items()):
        lines.append(f"{name},speedup,{value:.9g},")
    return "\n".join(lines) + "\n"


def simulate_pipeline(records: list[TraceRecord], config: SimConfig) -> PipelineReport:
    """Replay a trace under all four optimization cells."""
    cells = {
        "baseline": _cell_breakdown(records, config, reconstructed=False, speculative=False),
        "pw": _cell_breakdown(records, config, reconstructed=True, speculative=False),
        "es": _cell_breakdown(records, config, reconstructed=False, speculative=True),
        "pw_es": _cell_breakdown(records, config, reconstructed=True, speculative=True),
    }
    base = cells["baseline"].total
    speedups = {name: (base / cells[name].total if cells[name].total > 0 else float("inf")) for name in ("pw", "es", "pw_es")}
    return PipelineReport(cells=cells, speedups=speedups)


@dataclass(frozen=True)
class CoveragePoint:
    budget: int
    coverage_fraction: float
    storage_bytes: int


def coverage_curve(
    leaves,
    budgets,
    geometry: ModelGeometry,
    static_prefix_tokens: int,
    extra_static_tokens: int = 0,
) -> list[CoveragePoint]:
    """Token coverage and storage cost per cache budget.

    `leaves` holds one (key, stream) pair per training query, as
    `clusterplan.select_combinations` takes them: the stream is what the
    query's planner prompt lays out after the static head and could load
    from cache (`clusterplan.sample_leaves`).  The fraction is the share of
    those tokens the selection at each budget serves (`clusterplan.coverage`).
    Storage counts the always-cached static prefixes plus one full blob per
    selected stream (each entry embeds the static planner prefix ahead of
    its stream).

    One greedy run at the largest budget supplies every smaller budget,
    since the selection sequence is incremental.
    """
    leaves = [(key, tuple(stream)) for key, stream in leaves]
    budgets = sorted(set(int(b) for b in budgets))
    if budgets and budgets[0] < 0:
        raise ValueError("budgets must be non-negative")
    streams = dict(leaves)
    counts = Counter(key for key, _ in leaves)  # a candidate's queries share its stream: count it once
    full = select_combinations(budgets[-1] if budgets else 0, leaves)

    denom = sum(len(stream) for _, stream in leaves)
    static = kv_size(static_prefix_tokens + extra_static_tokens, geometry)
    points = []
    for budget in budgets:
        keys = [streams[pick] for pick in full[:budget]]
        points.append(
            CoveragePoint(
                budget=budget,
                coverage_fraction=(sum(n * coverage([streams[t]], keys) for t, n in counts.items()) / denom if denom else 0.0),
                storage_bytes=static + sum(kv_size(static_prefix_tokens + len(key), geometry) for key in keys),
            )
        )
    return points


def coverage_saturation_budget(leaves) -> int:
    """Budget at which the selection serves every training stream in full.

    The selection stops only when no candidate adds a covered token, and
    each stream's own candidate covers it, so that is where it stops.
    """
    return len(select_combinations(len(leaves), leaves))


def calibration_trace() -> list[TraceRecord]:
    """The averaged-workload record the cost model is calibrated against.

    Token counts and decode statistics follow the measured on-device agent
    profile bundled with the device presets: a long planner prompt whose
    reconstruction leaves roughly thirty percent of it uncached, a shorter
    arbiter prompt that is almost entirely static, and selective decoding
    statistics with about one accepted draft token per verification pass.
    """
    doc = {
        "query_id": "calibration-average",
        "tool_count": 3,
        "planner": {
            "baseline_total": 1739,
            "baseline_uncacheable": 1711,
            "weaver_total": 3790,
            "weaver_uncacheable": 519,
            # The reference profile reports one load per role and does not
            # split off its query-independent part, so both loads stay serial.
            "weaver_static": 0,
            "output_tokens": 113,
            "decode": {
                "rounds": 65,
                "fallbacks": 17,
                "drafts_generated": 192,
                "drafts_accepted": 48,
                "draft_len": 4,
                "output_tokens": 113,
                "selective": True,
            },
        },
        "arbiter": {
            "baseline_total": 790,
            "baseline_uncacheable": 790,
            "weaver_total": 790,
            "weaver_uncacheable": 88,
            "weaver_static": 0,
            "output_tokens": 147,
            "decode": {
                "rounds": 91,
                "fallbacks": 37,
                "drafts_generated": 216,
                "drafts_accepted": 56,
                "draft_len": 4,
                "output_tokens": 147,
                "selective": True,
            },
        },
    }
    return [TraceRecord.from_dict(doc)]

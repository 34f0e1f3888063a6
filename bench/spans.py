"""Out-of-process tracing: spans recorded around the program's public calls.

Nothing under `src/` knows about this module.  `patched` swaps module and
class attributes for wrappers for the duration of a `with` block and
restores them afterwards, so untraced runs execute the program unmodified.

A span is `[name, start, end, parent, query]`: perf_counter seconds, the
index of the enclosing span (-1 at top level) and the id of the query it
belongs to (-1 outside any query).  A query starts at its
`toolrag.retrieve_tools` call; every span from there until the next one
inside the same `pipeline.run_queries` call shares its id.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager

RETRIEVE_TOOLS = "toolrag.retrieve_tools"
RUN_QUERIES = "pipeline.run_queries"


def targets():
    """(owner, attribute, span name) for every traced call."""
    from agentaccel import clusterplan, exspec, lm, pipeline, simulator
    from agentaccel.kvstore import KVStore
    from agentaccel.toolrag import ToolRag
    from agentaccel.weaver import Weaver

    return (
        (pipeline, "load_bundle", "pipeline.load_bundle"),
        (pipeline, "run_queries", RUN_QUERIES),
        (clusterplan, "nmf_factorize", "clusterplan.nmf_factorize"),
        (clusterplan, "select_combinations", "clusterplan.select_combinations"),
        (KVStore, "__init__", "kvstore.open"),
        (KVStore, "precompute", "kvstore.precompute"),
        (KVStore, "longest_cached_prefix", "kvstore.match"),
        (Weaver, "planner_prompt", "weaver.planner_prompt"),
        (Weaver, "baseline_prompt", "weaver.baseline_prompt"),
        (Weaver, "arbiter_prompt", "weaver.arbiter_prompt"),
        (ToolRag, "retrieve_tools", RETRIEVE_TOOLS),
        (ToolRag, "retrieve_examples", "toolrag.retrieve_examples"),
        (exspec, "build_lut", "exspec.build_lut"),
        (exspec, "decode", "exspec.decode"),
        (lm.ReferenceModel, "greedy_next", "lm.greedy_next"),
        (lm, "train_markov", "lm.train_markov"),
        (simulator, "simulate_pipeline", "simulator.simulate_pipeline"),
    )


@contextmanager
def patched(wrap, names=None):
    """Replace each target (or those in `names`) with `wrap(name, original)`."""
    saved = []
    try:
        for owner, attr, name in targets():
            if names is None or name in names:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, functools.wraps(original)(wrap(name, original)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Keeps spans in memory plus the counters observed at span boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.served_entries: set[str] = set()
        self._stack: list[int] = []
        self._query = -1

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        if name == RETRIEVE_TOOLS and self._query_scope():
            self._query += 1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._query])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        if self.spans[index][0] == RUN_QUERIES:
            self._query = -1

    def _query_scope(self) -> bool:
        return any(self.spans[i][0] == RUN_QUERIES for i in self._stack)

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        with patched(self.wrap):
            yield self


# ---- counters observed at span boundaries -----------------------------------


def _on_select(tracer, args, combos):
    tracer.counts["clusterplan.combos_selected"] = len(combos)


def _on_precompute(tracer, args, created):
    tracer.counts["kvstore.bytes_written"] += sum(e.byte_size for e in created)
    tracer.counts["kvstore.entries"] = len(args[0].entries)


def _on_match(tracer, args, result):
    entry, match_len = result
    if entry is not None:
        tracer.counts["kvstore.matched_tokens"] += match_len
        tracer.counts["kvstore.entry_tokens"] += entry.token_count
        tracer.served_entries.add(entry.blob_name)


def _on_prompt(role):
    def observe(tracer, args, prompt):
        tracer.counts[f"{role}.prompts"] += 1
        tracer.counts[f"{role}.tokens"] += prompt.total_tokens
        tracer.counts[f"{role}.served_tokens"] += prompt.match_len

    return observe


def _on_build_lut(tracer, args, lut):
    tracer.counts["exspec.luts"] += 1
    tracer.counts["exspec.lut_entries"] += len(lut)


def _on_decode(tracer, args, result):
    stats = result[1]
    tracer.counts["exspec.rounds"] += stats.rounds
    tracer.counts["exspec.fallbacks"] += stats.fallbacks
    tracer.counts["exspec.drafts_generated"] += stats.drafts_generated
    tracer.counts["exspec.drafts_accepted"] += stats.drafts_accepted
    tracer.counts["exspec.output_tokens"] += stats.output_tokens


_OBSERVERS = {
    "clusterplan.select_combinations": _on_select,
    "kvstore.precompute": _on_precompute,
    "kvstore.match": _on_match,
    "weaver.planner_prompt": _on_prompt("planner"),
    "weaver.arbiter_prompt": _on_prompt("arbiter"),
    "exspec.build_lut": _on_build_lut,
    "exspec.decode": _on_decode,
}


# ---- analysis ---------------------------------------------------------------


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, query in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, query) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start and s < end]
        out.append((end - start) - covered(clipped))
    return out


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        totals[span[0]] += self_s
    return dict(totals)


def query_latencies(spans) -> list[float]:
    """Seconds from each query's first span start to its last span end."""
    bounds: dict[int, list[float]] = {}
    for name, start, end, parent, query in spans:
        if query < 0:
            continue
        b = bounds.setdefault(query, [start, end])
        b[0] = min(b[0], start)
        b[1] = max(b[1], end)
    return [end - start for start, end in (bounds[q] for q in sorted(bounds))]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(p: float, samples: int) -> int:
    """1-based nearest rank of percentile p; rounding keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(p / 100.0 * samples, 6)))


def tail_percentile(samples: int) -> float | None:
    """The highest percentile of TAIL_LADDER with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples - _rank(p, samples) >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(p, len(ordered)) - 1]

"""agentaccel benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload bundled-scripted --seed 1 --seconds 10 --trace 0

The workload's inputs are generated from the seed in a child process (so its
memory stays out of `peak_rss_mb`), then the program is driven as a user
drives it, in-process through `agentaccel.cli.main`: `build-plan`,
`precompute-cache`, `run` and `simulate`.  Load is one closed-loop caller
with `jobs=1`.

--trace 0  end-to-end metrics, nothing wrapped.  For --seconds (at least
           MIN_REPS times) the program is set up (both set-up commands from
           an empty cache directory) and then `run`; the medians of both
           wall times are reported.
--trace 1  per-layer metrics.  Untraced and traced full passes alternate for
           --seconds (at least one pair); spans are recorded around the
           program's public calls from `spans.py` and medians over the traced
           passes are reported.  The last traced pass's spans are written to
           .bench_work/<workload>-<seed>.spans.jsonl.

Either way a final, untimed `run` executes under the checks of `verify.py`,
and every timed `run` must reproduce that run's trace byte for byte.  Each
CLI command and each query of each timed run is one attempted operation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads
from verify import Checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "run_qps": "queries/s",
    "peak_rss_mb": "MB",
    "modeled_speedup_pw": "x",
    "modeled_speedup_es": "x",
    "modeled_speedup_pw_es": "x",
    "modeled_query_s": "s",
}

PER_LAYER = {
    "clusterplan.nmf_factorize.self_s": "s",
    "clusterplan.select_combinations.self_s": "s",
    "clusterplan.clusters": "count",
    "clusterplan.combos_selected": "count",
    "kvstore.precompute.self_s": "s",
    "kvstore.open.self_s": "s",
    "kvstore.match.self_s": "s",
    "kvstore.bytes_written": "bytes",
    "kvstore.match.calls": "count",
    "kvstore.served_tokens_frac": "frac",
    "kvstore.entry_use_frac": "frac",
    "kvstore.entries_hit_frac": "frac",
    "weaver.planner_prompt.self_s": "s",
    "weaver.baseline_prompt.self_s": "s",
    "weaver.arbiter_prompt.self_s": "s",
    "weaver.planner_prompt_tokens.mean": "tokens",
    "weaver.planner_uncacheable_frac": "frac",
    "toolrag.retrieve_tools.self_s": "s",
    "toolrag.retrieve_examples.self_s": "s",
    "exspec.build_lut.self_s": "s",
    "exspec.lut_entries.mean": "count",
    "exspec.decode.self_s": "s",
    "exspec.rounds": "count",
    "exspec.fallbacks": "count",
    "exspec.draft_acceptance": "frac",
    "exspec.tokens_per_round": "tokens",
    "lm.greedy_next.calls": "count",
    "lm.greedy_next.self_s": "s",
    "lm.train_markov.self_s": "s",
    "pipeline.load_bundle.self_s": "s",
    "pipeline.run_queries.self_s": "s",
    "pipeline.query_ms.p50": "ms",
    "pipeline.query_ms.p95": "ms",
    "simulator.simulate_pipeline.self_s": "s",
    "cli.build_plan_s": "s",
    "cli.precompute_cache_s": "s",
    "cli.run_s": "s",
    "cli.simulate_s": "s",
    "cli.self_s": "s",
    "bench.tracing_overhead_frac": "frac",
    "bench.unattributed_frac": "frac",
}

TAIL = 95.0  # the percentile `pipeline.query_ms.p95` reports
ARTIFACTS = ("plan.json", "cache/manifest.json", "trace.jsonl", "report.json")


class StageFailed(RuntimeError):
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Session:
    """One workload's generated inputs plus the tally of operations."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.config = json.loads((workdir / "run.json").read_text())
        self.queries = sum(1 for line in (workdir / "test.jsonl").read_text().splitlines() if line.strip())
        self.attempted = 0
        self.failed = 0
        self.tracer: spans.Tracer | None = None

    def cli(self, *argv) -> float:
        """Run one CLI command in-process; its wall time in seconds."""
        from agentaccel import cli

        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli." + argv[0]) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        wall = time.perf_counter() - start
        if rc != 0:
            self.failed += 1
            raise StageFailed(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        return wall

    def setup(self) -> float:
        """build-plan + precompute-cache from an empty cache directory."""
        d, plan = self.dir, self.config["plan"]
        shutil.rmtree(d / "cache", ignore_errors=True)
        return self.cli(
            "build-plan", "--dataset", d / "train.jsonl", "--registry", d / "registry.json",
            "--examples", d / "examples.jsonl", "--vocab", d / "vocab.json",
            "--budget", plan["budget"], "--rank", plan["rank"], "--seed", plan["seed"],
            "--iters", plan["iters"], "--tol", plan["tol"], "--out", d / "plan.json",
        ) + self.cli(
            "precompute-cache", "--plan", d / "plan.json", "--registry", d / "registry.json",
            "--vocab", d / "vocab.json", "--geometry", self.config["cache"]["geometry"], "--out", d / "cache",
        )

    def run(self, trace: str = "trace.jsonl") -> tuple[float, bytes]:
        wall = self.cli("run", "--config", self.dir / "run.json", "--trace", self.dir / trace)
        return wall, (self.dir / trace).read_bytes()

    def simulate(self) -> float:
        sim = self.config["simulate"]
        return self.cli(
            "simulate", "--trace", self.dir / "trace.jsonl", "--device", sim["device"],
            "--geometry", sim["geometry"], "--tax", sim["tax"], "--tool-seconds", sim["tool_seconds"],
            "--toolrag-seconds", sim["toolrag_seconds"], "--out", self.dir / "report.json",
        )

    def checked_run(self) -> tuple[list[bytes], set[int]]:
        """An untimed `run` under the output checks: its trace lines and failed query indices."""
        checker = Checker()
        with checker.installed():
            _, trace = self.run("checked_trace.jsonl")
        if checker.queries != self.queries:
            raise StageFailed(f"checks saw {checker.queries} queries, expected {self.queries}")
        return trace.splitlines(), checker.failed

    def tally_queries(self, traces, reference: list[bytes], failed: set[int]):
        """Count each query of each timed run; it fails if checks flagged it or its trace line differs."""
        for trace in traces:
            lines = trace.splitlines()
            self.attempted += self.queries
            if len(lines) != len(reference) or lines[0] != reference[0]:
                self.failed += self.queries
                continue
            self.failed += sum(1 for i in range(self.queries) if i in failed or lines[i + 1] != reference[i + 1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure_end_to_end(session: Session, seconds: float) -> dict[str, float]:
    setup, walls, traces = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        gc.collect()
        setup.append(session.setup())
        gc.collect()
        wall, trace = session.run()
        walls.append(wall)
        # One copy of each distinct trace, so kept traces do not grow peak_rss_mb.
        traces.append(traces[0] if traces and trace == traces[0] else trace)
    session.simulate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference, failed = session.checked_run()
    session.tally_queries(traces, reference, failed)

    report = json.loads((session.dir / "report.json").read_text())
    for name in ARTIFACTS:
        print(f"artifact {name} sha256 {_sha256(session.dir / name)}")
    return {
        "setup_s": statistics.median(setup),
        "run_qps": session.queries / statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "modeled_speedup_pw": report["speedups"]["pw"],
        "modeled_speedup_es": report["speedups"]["es"],
        "modeled_speedup_pw_es": report["speedups"]["pw_es"],
        "modeled_query_s": report["cells"]["pw_es"]["total"] / session.queries,
    }


def _full_pass(session: Session) -> tuple[float, bytes]:
    gc.collect()
    start = time.perf_counter()
    session.setup()
    _, trace = session.run()
    session.simulate()
    return time.perf_counter() - start, trace


def _layer_metrics(tracer: spans.Tracer, wall: float, plan: dict) -> dict[str, float]:
    """Per-layer numbers of one traced full pass."""
    records = tracer.spans
    self_s = spans.self_time_by_name(records)
    c = tracer.counts
    m = {
        name: self_s.get(name[: -len(".self_s")], 0.0)
        for name in PER_LAYER
        if name.endswith(".self_s") and not name.startswith("cli.")
    }
    for command in ("build-plan", "precompute-cache", "run", "simulate"):
        m[f"cli.{command.replace('-', '_')}_s"] = sum(e - s for n, s, e, _, _ in records if n == f"cli.{command}")
    m["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))

    latencies = spans.query_latencies(records)
    if spans.tail_percentile(len(latencies)) != TAIL:
        raise StageFailed(f"{len(latencies)} queries do not give p{TAIL:g} ten samples beyond it")
    m["pipeline.query_ms.p50"] = spans.percentile(latencies, 50.0) * 1e3
    m["pipeline.query_ms.p95"] = spans.percentile(latencies, TAIL) * 1e3

    calls = Counter(record[0] for record in records)
    m["lm.greedy_next.calls"] = calls["lm.greedy_next"]
    m["kvstore.match.calls"] = calls["kvstore.match"]
    m["clusterplan.clusters"] = len(plan["clusters"])
    m["clusterplan.combos_selected"] = c["clusterplan.combos_selected"]
    m["kvstore.bytes_written"] = c["kvstore.bytes_written"]
    m["kvstore.served_tokens_frac"] = _ratio(
        c["planner.served_tokens"] + c["arbiter.served_tokens"], c["planner.tokens"] + c["arbiter.tokens"]
    )
    m["kvstore.entry_use_frac"] = _ratio(c["kvstore.matched_tokens"], c["kvstore.entry_tokens"])
    m["kvstore.entries_hit_frac"] = _ratio(len(tracer.served_entries), c["kvstore.entries"])
    m["weaver.planner_prompt_tokens.mean"] = _ratio(c["planner.tokens"], c["planner.prompts"])
    m["weaver.planner_uncacheable_frac"] = 1.0 - _ratio(c["planner.served_tokens"], c["planner.tokens"])
    m["exspec.lut_entries.mean"] = _ratio(c["exspec.lut_entries"], c["exspec.luts"])
    m["exspec.rounds"] = c["exspec.rounds"]
    m["exspec.fallbacks"] = c["exspec.fallbacks"]
    m["exspec.draft_acceptance"] = _ratio(c["exspec.drafts_accepted"], c["exspec.drafts_generated"])
    m["exspec.tokens_per_round"] = _ratio(c["exspec.output_tokens"], c["exspec.rounds"])
    top_level = [(s, e) for _, s, e, parent, _ in records if parent < 0]
    m["bench.unattributed_frac"] = 1.0 - spans.covered(top_level) / wall
    return m


def measure_layers(session: Session, seconds: float, spans_out: Path) -> dict[str, float]:
    untraced, traced, passes, traces = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, trace = _full_pass(session)
        untraced.append(wall)
        traces.append(trace)
        session.tracer = spans.Tracer()
        try:
            with session.tracer.installed():
                wall, trace = _full_pass(session)
        finally:
            tracer, session.tracer = session.tracer, None
        traced.append(wall)
        traces.append(trace)
        plan = json.loads((session.dir / "plan.json").read_text())
        passes.append(_layer_metrics(tracer, wall, plan))

    reference, failed = session.checked_run()
    session.tally_queries(traces, reference, failed)
    spans_out.write_text("".join(json.dumps(record) + "\n" for record in tracer.spans))
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["bench.tracing_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.import_agentaccel()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gen = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(workdir)],
            timeout=120,
        )
        if gen.returncode != 0:
            print(f"error: input generation exited {gen.returncode}", file=sys.stderr)
            return 1
        session = Session(workdir)
        try:
            if args.trace:
                spans_out = workdir.parent / f"{args.workload}-{args.seed}.spans.jsonl"
                metrics, units = measure_layers(session, args.seconds, spans_out), PER_LAYER
            else:
                metrics, units = measure_end_to_end(session, args.seconds), END_TO_END
        except StageFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": session.attempted, "failed": max(1, session.failed), "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

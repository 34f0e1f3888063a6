"""Command-line front end: offline planning, cache precompute, online runs,
simulation, and report emission.

All artifacts are written atomically (temp file + rename) and carry a
provenance block with input hashes and knob values, so re-running a command
with identical inputs and seed reproduces its output byte for byte.  Errors
print a single `error: ...` line on stderr and exit non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import corpus, exspec, fixtures, lm, pipeline, simulator
from .clusterplan import ClusterPlan, build_plan
from .kvstore import KVStore, ModelGeometry, StoreError
from .tokenizer import Tokenizer, is_token_ids
from .weaver import Weaver, region_tokens

CACHE_DIR_ENV = "AGENTACCEL_CACHE_DIR"


class CliError(RuntimeError):
    pass


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _require_file(path, what: str) -> Path:
    if path is None:
        raise CliError(f"missing required input: {what}")
    path = Path(path)
    if not path.exists():
        raise CliError(f"{what} not found: {path}")
    return path


def _load_config(path) -> tuple[dict, Path]:
    path = _require_file(path, "config file")
    try:
        return json.loads(path.read_text()), path.parent
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid config {path}: {exc}") from exc


def _cfg_path(cfg: dict, base: Path, key: str, override=None):
    if override is not None:
        return Path(override)
    rel = cfg.get("paths", {}).get(key)
    if rel is None:
        return None
    return base / rel


def _resolve_geometry(name_or_path) -> ModelGeometry:
    presets = simulator.geometry_presets()
    if name_or_path in presets:
        return presets[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        try:
            return ModelGeometry.from_dict(json.loads(path.read_text()))
        except KeyError as exc:
            raise CliError(f"geometry file {path} is missing field {exc}") from exc
    raise CliError(f"unknown geometry '{name_or_path}' (presets: {', '.join(sorted(presets))})")


def _resolve_device(name_or_path) -> simulator.DeviceSpec:
    presets = simulator.device_presets()
    if name_or_path in presets:
        return presets[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        doc = json.loads(path.read_text())
        doc.setdefault("name", path.stem)
        try:
            return simulator.DeviceSpec.from_dict(doc)
        except KeyError as exc:
            raise CliError(f"device file {path} is missing field {exc}") from exc
    raise CliError(f"unknown device '{name_or_path}' (presets: {', '.join(sorted(presets))})")


def _resolve_tax(spec) -> lm.TaxCurve:
    if spec in (None, "ideal"):
        return lm.IDEAL_TAX
    if spec == "measured":
        return lm.MEASURED_TAX
    path = Path(spec)
    if path.exists():
        return lm.TaxCurve(json.loads(path.read_text()))
    raise CliError(f"unknown tax curve '{spec}' (use ideal, measured, or a JSON file of [k, multiplier] pairs)")


# ---------------------------------------------------------------------------


def cmd_fixtures(args) -> int:
    paths = fixtures.write_fixtures(args.out, seed=args.seed)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def cmd_build_plan(args) -> int:
    registry_path = _require_file(args.registry, "registry")
    dataset_path = _require_file(args.dataset, "dataset")
    examples_path = _require_file(args.examples, "example db")
    bundle = pipeline.load_bundle(registry_path, dataset_path, None, examples_path, args.vocab)
    matrix = corpus.build_coactivation(bundle.train, bundle.registry)
    provenance = {
        "registry_sha256": _sha256(registry_path),
        "dataset_sha256": _sha256(dataset_path),
        "examples_sha256": _sha256(examples_path),
    }
    plan = build_plan(
        matrix,
        bundle.registry,
        bundle.examples,
        bundle.train,
        budget=args.budget,
        rank=args.rank,
        iters=args.iters,
        seed=args.seed,
        tol=args.tol,
        provenance=provenance,
    )
    _atomic_write(args.out, plan.to_json() + "\n")
    print(f"plan written to {args.out} ({len(plan.clusters)} clusters, {len(plan.cached_combinations)} cached combinations)")
    return 0


def cmd_precompute_cache(args) -> int:
    plan_path = _require_file(args.plan, "plan")
    registry_path = _require_file(args.registry, "registry")
    outdir = args.out or os.environ.get(CACHE_DIR_ENV)
    if not outdir:
        raise CliError(f"no cache directory given (--out or ${CACHE_DIR_ENV})")
    geometry = _resolve_geometry(args.geometry)
    tok = Tokenizer.load(args.vocab) if args.vocab else Tokenizer()
    registry = corpus.load_registry(registry_path, tok)
    plan = ClusterPlan.load(plan_path)
    weaver = Weaver(registry, tok, plan, examples=[])
    store = KVStore(outdir)
    groups = weaver.cacheable_prefixes()
    total = 0
    for tag, prefixes in groups.items():
        if prefixes:
            store.precompute(prefixes, geometry, tag=tag)
            total += len(prefixes)
    provenance = {
        "plan_sha256": _sha256(plan_path),
        "registry_sha256": _sha256(registry_path),
        "geometry": geometry.to_dict(),
    }
    _atomic_write(Path(outdir) / "provenance.json", json.dumps(provenance, sort_keys=True, indent=1) + "\n")
    print(f"precomputed {total} prefixes, {store.total_bytes} KV bytes in {outdir}")
    return 0


def _weaver_from_args(args) -> tuple[pipeline.CorpusBundle, Weaver, KVStore | None]:
    bundle = pipeline.load_bundle(
        _require_file(args.registry, "registry"),
        _require_file(args.dataset, "dataset"),
        getattr(args, "test", None),
        _require_file(args.examples, "example db"),
        args.vocab,
    )
    plan = ClusterPlan.load(_require_file(args.plan, "plan"))
    rag = bundle.make_rag(args.scorer)
    weaver = Weaver(bundle.registry, bundle.tokenizer, plan, bundle.examples, rag, tau=args.tau)
    cachedir = args.cache or os.environ.get(CACHE_DIR_ENV)
    store = KVStore(cachedir) if cachedir else None
    return bundle, weaver, store


def cmd_weave(args) -> int:
    bundle, weaver, store = _weaver_from_args(args)
    query_tokens = bundle.tokenizer.tokenize(args.query)
    if args.baseline:
        prompt = weaver.baseline_prompt(query_tokens, k_rag=args.top_k, store=store)
    else:
        prompt = weaver.planner_prompt(query_tokens, k=args.k, store=store)
    doc = prompt.to_dict()
    doc["provenance"] = {
        "query": args.query,
        "k": args.k,
        "baseline": bool(args.baseline),
        "tau": args.tau,
        "scorer": args.scorer,
    }
    _atomic_write(args.emit, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    print(
        f"{'baseline' if args.baseline else 'reconstructed'} prompt: "
        f"{prompt.total_tokens} tokens, {prompt.cacheable_tokens} cacheable, {prompt.uncacheable_tokens} uncacheable"
    )
    return 0


def _prompt_segments(path: Path) -> list[tuple[str, tuple[int, ...]]]:
    """The `(kind, tokens)` segments of a `weave --emit` prompt file."""
    doc = json.loads(path.read_text())
    segments = doc.get("segments") if isinstance(doc, dict) else None
    if not isinstance(segments, list):
        raise CliError(f"prompt file {path} has no 'segments' list")
    for i, seg in enumerate(segments):
        if not (isinstance(seg, dict) and isinstance(seg.get("kind"), str) and is_token_ids(seg.get("tokens"))):
            raise CliError(f"prompt file {path}: segments[{i}] is not an object with a 'kind' and a list of token ids")
    return [(seg["kind"], tuple(seg["tokens"])) for seg in segments]


def cmd_decode(args) -> int:
    prompt_path = _require_file(args.prompt, "prompt file (weave --emit output)")
    segments = _prompt_segments(prompt_path)
    prompt_tokens = [t for _, toks in segments for t in toks]
    region = region_tokens(segments, args.extract)

    if args.model == "markov":
        bundle = pipeline.load_bundle(
            _require_file(args.registry, "registry"),
            _require_file(args.dataset, "dataset"),
            None,
            _require_file(args.examples, "example db"),
            args.vocab,
        )
        model = pipeline._build_markov(bundle)
    else:
        script = lm.load_script(_require_file(args.script, "script file"), prompt_tokens)
        if script is None:
            raise CliError("script file has no entry for this prompt")
        model = lm.ScriptedModel(prompt_tokens, script)

    lut = exspec.build_lut(region, args.n)
    out, stats = exspec.decode(model, prompt_tokens, lut, args.draft_len, args.selective == "on", args.max_tokens)
    reference, reference_cost = exspec.autoregressive_reference(model, prompt_tokens, args.max_tokens)
    doc = {
        "output_tokens": out,
        "matches_autoregressive": out == reference,
        "autoregressive_cost": reference_cost,
        "stats": stats.to_dict(),
        "provenance": {
            "prompt_sha256": _sha256(prompt_path),
            "model": args.model,
            "n": args.n,
            "draft_len": args.draft_len,
            "selective": args.selective,
            "extract": args.extract,
        },
    }
    _atomic_write(args.stats, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    print(
        f"decoded {stats.output_tokens} tokens in {stats.rounds} rounds "
        f"({stats.drafts_accepted}/{stats.drafts_generated} drafts accepted, {stats.fallbacks} fallbacks)"
    )
    return 0


def cmd_run(args) -> int:
    cfg, base = _load_config(args.config)
    paths = {k: _cfg_path(cfg, base, k) for k in ("registry", "train", "test", "examples", "vocab", "plan", "cachedir", "trace")}
    bundle = pipeline.load_bundle(
        _require_file(paths["registry"], "registry"),
        _require_file(paths["train"], "train dataset"),
        _require_file(paths["test"], "test dataset"),
        _require_file(paths["examples"], "example db"),
        paths["vocab"] if paths["vocab"] and paths["vocab"].exists() else None,
    )
    plan = ClusterPlan.load(_require_file(paths["plan"], "plan"))
    cachedir = args.cache or os.environ.get(CACHE_DIR_ENV) or paths["cachedir"]
    store = KVStore(cachedir) if cachedir and Path(cachedir, "manifest.json").exists() else None

    settings = pipeline.RunSettings(
        tau=_pick(args.tau, cfg, "toolrag", "tau", 0.5),
        scorer=_pick(args.scorer, cfg, "toolrag", "scorer", "oracle"),
        top_k=_pick(args.top_k, cfg, "toolrag", "top_k", 3),
        k=_pick(args.k, cfg, "weaver", "k", 1),
        n=_pick(args.n, cfg, "exspec", "n", exspec.DEFAULT_N),
        draft_len=_pick(args.draft_len, cfg, "exspec", "draft_len", exspec.DEFAULT_DRAFT_LEN),
        selective=_pick(None if args.selective is None else args.selective == "on", cfg, "exspec", "selective", True),
        extract=_pick(args.extract, cfg, "exspec", "extract", "fewshot"),
        model=_pick(args.model, cfg, "run", "model", "scripted"),
        max_tokens=_pick(args.max_tokens, cfg, "run", "max_tokens", 160),
        jobs=_pick(args.jobs, cfg, "run", "jobs", 1),
    )
    if not (0 <= settings.k <= 4):
        raise CliError("k must be within [0, 4]")
    if settings.n < 2:
        raise CliError("n must be at least 2")

    records = pipeline.run_queries(bundle, plan, store, settings)
    out_path = Path(args.trace) if args.trace else paths["trace"]
    if out_path is None:
        raise CliError("no trace output path configured")
    header = {
        "kind": "header",
        "provenance": {
            "config_sha256": _sha256(args.config),
            "plan_sha256": _sha256(paths["plan"]),
            "settings": settings.__dict__,
        },
    }
    existing = []
    if out_path.exists() and args.append:
        existing = [ln for ln in out_path.read_text().splitlines() if ln.strip()]
    lines = existing + [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(r.to_dict(), sort_keys=True) for r in records]
    _atomic_write(out_path, "\n".join(lines) + "\n")
    print(f"traced {len(records)} queries to {out_path}")
    return 0


def _pick(override, cfg: dict, section: str, key: str, default):
    if override is not None:
        return override
    return cfg.get(section, {}).get(key, default)


def cmd_simulate(args) -> int:
    trace_path = _require_file(args.trace, "trace file")
    records = simulator.load_trace(trace_path)
    config = simulator.SimConfig(
        device=_resolve_device(args.device),
        geometry=_resolve_geometry(args.geometry),
        verify_tax=_resolve_tax(args.tax),
        tool_seconds=args.tool_seconds,
        toolrag_seconds=args.toolrag_seconds,
    )
    report = simulator.simulate_pipeline(records, config)
    doc = report.to_dict()
    doc["provenance"] = {
        "trace_sha256": _sha256(trace_path),
        "device": config.device.name,
        "geometry": config.geometry.name,
        "tax": args.tax,
        "tool_seconds": config.tool_seconds,
        "toolrag_seconds": config.toolrag_seconds,
    }
    _atomic_write(args.out, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    base = report.cells["baseline"]
    print(f"baseline total {base.total:.3f}s per trace; speedups: " + ", ".join(f"{k}={v:.3f}x" for k, v in report.speedups.items()))
    return 0


def cmd_report(args) -> int:
    report_path = _require_file(args.report, "report file")
    doc = json.loads(report_path.read_text())
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    else:
        text = simulator.report_csv(doc)
    if args.out:
        _atomic_write(args.out, text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agentaccel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="emit the shipped synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=fixtures.DEFAULT_SEED)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("build-plan", help="cluster tools and select cached combinations")
    p.add_argument("--dataset", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--vocab")
    p.add_argument("--budget", type=int, default=15)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--seed", type=int, default=fixtures.DEFAULT_SEED)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_plan)

    p = sub.add_parser("precompute-cache", help="persist KV blobs for every cacheable prefix")
    p.add_argument("--plan", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--vocab")
    p.add_argument("--geometry", default="desk")
    p.add_argument("--out", help=f"cache directory (default ${CACHE_DIR_ENV})")
    p.set_defaults(func=cmd_precompute_cache)

    p = sub.add_parser("weave", help="reconstruct one prompt and emit its accounting")
    p.add_argument("--query", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--vocab")
    p.add_argument("--cache", help=f"cache directory (default ${CACHE_DIR_ENV})")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--top-k", dest="top_k", type=int, default=3)
    p.add_argument("--scorer", choices=("cosine", "oracle"), default="cosine")
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--emit", required=True)
    p.set_defaults(func=cmd_weave)

    p = sub.add_parser("decode", help="speculative decode over an emitted prompt")
    p.add_argument("--prompt", required=True, help="prompt JSON from weave --emit")
    p.add_argument("--model", choices=("scripted", "markov"), default="markov")
    p.add_argument("--script", help="scripts JSON (scripted model)")
    p.add_argument("--registry")
    p.add_argument("--dataset")
    p.add_argument("--examples")
    p.add_argument("--vocab")
    p.add_argument("--n", type=int, default=exspec.DEFAULT_N)
    p.add_argument("--draft-len", type=int, default=exspec.DEFAULT_DRAFT_LEN)
    p.add_argument("--selective", choices=("on", "off"), default="on")
    p.add_argument("--extract", choices=("fewshot", "all"), default="fewshot")
    p.add_argument("--max-tokens", type=int, default=256)
    p.add_argument("--stats", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("run", help="full per-query pipeline over the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--trace")
    p.add_argument("--append", action="store_true")
    p.add_argument("--cache")
    p.add_argument("--tau", type=float)
    p.add_argument("--scorer", choices=("cosine", "oracle"))
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--draft-len", dest="draft_len", type=int)
    p.add_argument("--selective", choices=("on", "off"))
    p.add_argument("--extract", choices=("fewshot", "all"))
    p.add_argument("--model", choices=("scripted", "markov"))
    p.add_argument("--max-tokens", dest="max_tokens", type=int)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="replay a trace under the cost model")
    p.add_argument("--trace", required=True)
    p.add_argument("--device", default="m4-pro")
    p.add_argument("--geometry", default="7b-class")
    p.add_argument("--tax", default="ideal", help="ideal, measured, or a JSON file of [k, multiplier] pairs")
    p.add_argument("--tool-seconds", dest="tool_seconds", type=float, default=simulator.DEFAULT_TOOL_SECONDS)
    p.add_argument("--toolrag-seconds", dest="toolrag_seconds", type=float, default=simulator.DEFAULT_TOOLRAG_SECONDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="re-emit a simulation report as JSON or CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, corpus.LoadError, simulator.TraceError, StoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

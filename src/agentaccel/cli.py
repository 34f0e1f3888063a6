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
from .weaver import MAX_DYNAMIC_EXAMPLES, Weaver, region_tokens

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
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return cfg, path.parent


def _cfg_section(cfg: dict, section: str) -> dict:
    values = cfg.get(section, {})
    if not isinstance(values, dict):
        raise CliError(f"config section '{section}' must be an object")
    return values


def _cfg_path(cfg: dict, base: Path, key: str):
    rel = _cfg_section(cfg, "paths").get(key)
    if rel is None:
        return None
    if not isinstance(rel, str):
        raise CliError(f"config paths.{key} must be a string")
    return base / rel


def _preset_or_file(spec: str, what: str, presets: dict, parse, shape: str):
    """The preset named `spec`, else `parse(doc, path)` of the JSON file at `spec`.

    A file whose document `parse` cannot take ends in one CliError that says
    what the file must hold.
    """
    if spec in presets:
        return presets[spec]
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"unknown {what} '{spec}': neither a preset ({', '.join(sorted(presets))}) nor a file")
    try:
        return parse(json.loads(path.read_text()), path)
    except KeyError as exc:
        raise CliError(f"{what} file {path} must hold {shape}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"{what} file {path} must hold {shape}: {exc}") from exc


def _resolve_geometry(spec: str) -> ModelGeometry:
    return _preset_or_file(
        spec, "geometry", simulator.geometry_presets(), lambda doc, path: ModelGeometry.from_dict(doc),
        "a JSON object with a name and integer layers, kv_heads, head_dim, bytes_per_element and params_bytes",
    )


def _resolve_device(spec: str) -> simulator.DeviceSpec:
    return _preset_or_file(
        spec, "device", simulator.device_presets(),
        lambda doc, path: simulator.DeviceSpec.from_dict({"name": path.stem, **doc}),
        "a JSON object with numeric compute_tops, mem_bw and ssd_bw (optional: name, prefill_utilization)",
    )


def _tax_curve(doc, path) -> simulator.TaxCurve:
    # TaxCurve unpacks any iterable of pairs, so an object {"11": 0} or a
    # list of two-character strings would pass as a curve.
    if not (isinstance(doc, list) and all(isinstance(point, list) for point in doc)):
        raise TypeError("not a list of lists")
    return simulator.TaxCurve(doc)


def _resolve_tax(spec: str) -> simulator.TaxCurve:
    return _preset_or_file(
        spec, "tax curve", {"ideal": simulator.IDEAL_TAX, "measured": simulator.MEASURED_TAX}, _tax_curve,
        "a JSON list of [width, multiplier] pairs with multiplier 1.0 at width 1",
    )


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
    vocab_path = _require_file(args.vocab, "vocabulary")
    bundle = pipeline.load_bundle(registry_path, dataset_path, None, examples_path, vocab_path)
    matrix = corpus.build_coactivation(bundle.train, bundle.registry)
    provenance = {
        "registry_sha256": _sha256(registry_path),
        "dataset_sha256": bundle.train_sha256,
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
    tok = Tokenizer.load(_require_file(args.vocab, "vocabulary"))
    registry = corpus.load_registry(registry_path, tok)
    plan = ClusterPlan.load(plan_path)
    groups = Weaver(registry, tok, plan, examples=[]).cacheable_prefixes()
    store = KVStore(outdir)
    store.precompute(groups, geometry)
    total = sum(map(len, groups.values()))
    provenance = {
        "plan_sha256": _sha256(plan_path),
        "registry_sha256": _sha256(registry_path),
        "geometry": geometry.to_dict(),
    }
    _atomic_write(Path(outdir) / "provenance.json", json.dumps(provenance, sort_keys=True, indent=1) + "\n")
    print(f"precomputed {total} prefixes, {store.total_bytes} KV bytes in {outdir}")
    return 0


def _open_store(cachedir) -> KVStore | None:
    """The store in `cachedir`, or None without one; a directory without a manifest is refused."""
    if not cachedir:
        return None
    if not Path(cachedir, "manifest.json").exists():
        raise CliError(f"cache directory {cachedir} has no manifest.json: run precompute-cache into it, or run without a cache")
    return KVStore(cachedir)


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
    return bundle, weaver, _open_store(args.cache or os.environ.get(CACHE_DIR_ENV))


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
    prompt_tokens = region_tokens(segments, "all")
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
    doc = {
        "output_tokens": out,
        "matches_autoregressive": out == lm.greedy_decode(model, prompt_tokens, args.max_tokens),
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
        paths["vocab"] and _require_file(paths["vocab"], "vocabulary"),
    )
    plan = ClusterPlan.load(_require_file(paths["plan"], "plan"))
    bound = plan.provenance.get("dataset_sha256")
    if bound is None:
        raise CliError(f"plan {paths['plan']} records no dataset_sha256: re-run build-plan on the train dataset")
    if bound != bundle.train_sha256:
        raise CliError(f"train dataset {paths['train']} is not the one plan {paths['plan']} was built from: re-run build-plan")
    store = _open_store(args.cache or os.environ.get(CACHE_DIR_ENV) or paths["cachedir"])

    settings = _run_settings(args, cfg)
    if not (0 <= settings.k <= MAX_DYNAMIC_EXAMPLES):
        raise CliError(f"k must be within [0, {MAX_DYNAMIC_EXAMPLES}]")
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


# The run.json section each RunSettings field is read from.
_RUN_SECTIONS = {
    "toolrag": ("tau", "scorer", "top_k"),
    "weaver": ("k",),
    "exspec": ("n", "draft_len", "selective", "extract"),
    "run": ("model", "max_tokens", "jobs"),
}


def _run_settings(args, cfg: dict) -> pipeline.RunSettings:
    """Each knob from its flag, else from its run.json section; RunSettings supplies the rest.

    A configured knob must have the type of its default (an int passes for a float).
    """
    flags = dict(vars(args), selective=None if args.selective is None else args.selective == "on")
    defaults = pipeline.RunSettings()
    picked = {}
    for section, names in _RUN_SECTIONS.items():
        configured = _cfg_section(cfg, section)
        for name in names:
            value = flags[name] if flags[name] is not None else configured.get(name)
            if value is None:
                continue
            kind = type(getattr(defaults, name))
            if not (type(value) is kind or (kind is float and type(value) is int)):
                raise CliError(f"config {section}.{name} must be of type {kind.__name__}, not {value!r}")
            picked[name] = value
    return pipeline.RunSettings(**picked)


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


def _holds_numbers(obj, keys) -> bool:
    """True when `obj` is an object with a number (not a bool) under each of `keys`."""
    return isinstance(obj, dict) and all(type(obj.get(k)) in (int, float) for k in keys)


def _check_report(doc, path) -> None:
    """Refuse a document that `simulate` could not have written."""
    where = f"report file {path}"
    if not (isinstance(doc, dict) and isinstance(doc.get("cells"), dict)):
        raise CliError(f"{where} is not an object with a 'cells' object")
    for name in simulator.CELLS:
        cell = doc["cells"].get(name)
        if not (_holds_numbers(cell, ("total",)) and all(_holds_numbers(cell.get(k), simulator.STAGES) for k in ("seconds", "fractions"))):
            raise CliError(f"{where}: cells.{name} needs a number per stage in 'seconds' and 'fractions', and a 'total'")
    speedups = doc.get("speedups")
    if not (_holds_numbers(speedups, simulator.CELLS[1:]) and set(speedups) == set(simulator.CELLS[1:])):
        raise CliError(f"{where}: 'speedups' needs a number for each of {', '.join(simulator.CELLS[1:])} and nothing else")


def cmd_report(args) -> int:
    report_path = _require_file(args.report, "report file")
    doc = json.loads(report_path.read_text())
    _check_report(doc, report_path)
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

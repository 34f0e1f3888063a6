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

from . import corpus, fixtures, pipeline, shapes, simulator
from .clusterplan import ClusterPlan, build_plan
from .kvstore import KVStore, ModelGeometry, StoreError
from .tokenizer import Tokenizer
from .weaver import MAX_DYNAMIC_EXAMPLES, Weaver

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


_RUN_PATHS = ("registry", "train", "test", "examples", "vocab", "plan", "cachedir", "trace")


def _one_of(*names: str) -> shapes.Check:
    return shapes.Check(shapes.STR, lambda value: value in names, "one of " + ", ".join(f"'{name}'" for name in names))


# Each knob's allowed values, in run.json and on the `run` flags alike; an int passes for a float.
_KNOBS = {
    "tau": shapes.NUMBER,
    "scorer": _one_of(*pipeline.SCORERS),
    "top_k": shapes.COUNT,
    "k": shapes.Check(shapes.INT, lambda k: 0 <= k <= MAX_DYNAMIC_EXAMPLES, f"an integer within [0, {MAX_DYNAMIC_EXAMPLES}]"),
    "n": shapes.Check(shapes.INT, lambda n: n >= 2, "an integer of at least 2"),
    "draft_len": shapes.Check(shapes.INT, lambda draft_len: draft_len >= 1, "a positive integer"),
    "selective": shapes.BOOL,
    "model": _one_of(*pipeline.MODELS),
    "max_tokens": shapes.COUNT,
}
# Knobs run.json once took, by section: one still set is refused rather than ignored.
_GONE = shapes.Check(shapes.ANY, lambda value: False, "a setting any more: delete it")
_REMOVED = {"exspec": {"extract": _GONE}, "run": {"jobs": _GONE}}
_RUN_CONFIG = shapes.Object(
    optional={"paths": shapes.Object(optional=dict.fromkeys(_RUN_PATHS, shapes.STR))}
    | {
        section: shapes.Object(optional={name: _KNOBS[name] for name in names} | _REMOVED.get(section, {}))
        for section, names in pipeline.RUN_SECTIONS.items()
    }
)


def _load_config(path) -> tuple[dict, Path]:
    path = _require_file(path, "config file")
    return shapes.load_json(path, _RUN_CONFIG, f"config {path}", CliError), path.parent


def _preset_or_file(spec: str, what: str, presets: dict, parse):
    """The preset named `spec`, else `parse(doc, path)` of the JSON file at `spec`.

    A file that is not JSON ends in one CliError naming it; a document that
    `parse` refuses with a ValueError, in one that says what the file must hold.
    """
    if spec in presets:
        return presets[spec]
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"unknown {what} '{spec}': neither a preset ({', '.join(sorted(presets))}) nor a file")
    where = f"{what} file {path}"
    doc = shapes.load_json(path, shapes.ANY, where, CliError)
    try:
        return parse(doc, path)
    except ValueError as exc:
        raise CliError(f"{where} must hold a valid {what}: {exc}") from exc


def _resolve_geometry(spec: str) -> ModelGeometry:
    return _preset_or_file(spec, "geometry", simulator.geometry_presets(), lambda doc, path: ModelGeometry.from_dict(doc))


def _resolve_device(spec: str) -> simulator.DeviceSpec:
    return _preset_or_file(
        spec, "device", simulator.device_presets(), lambda doc, path: simulator.DeviceSpec.from_dict(doc, path.stem)
    )


def _resolve_tax(spec: str) -> simulator.TaxCurve:
    presets = {"ideal": simulator.IDEAL_TAX, "measured": simulator.MEASURED_TAX}
    return _preset_or_file(spec, "tax curve", presets, lambda doc, path: simulator.TaxCurve.from_list(doc))


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
        "vocab_sha256": _sha256(vocab_path),
    }
    plan = build_plan(
        matrix,
        bundle.registry,
        bundle.examples,
        bundle.train,
        bundle.top_train_examples(),
        budget=args.budget,
        rank=args.rank,
        iters=args.iters,
        seed=args.seed,
        tol=args.tol,
        provenance=provenance,
        draft_table=pipeline.plan_draft_table(bundle),
    )
    _atomic_write(args.out, plan.to_json() + "\n")
    print(f"plan written to {args.out} ({len(plan.clusters)} clusters, {len(plan.cached_leaves)} cached leaves)")
    return 0


def cmd_precompute_cache(args) -> int:
    plan_path = _require_file(args.plan, "plan")
    registry_path = _require_file(args.registry, "registry")
    outdir = args.out or os.environ.get(CACHE_DIR_ENV)
    if not outdir:
        raise CliError(f"no cache directory given (--out or ${CACHE_DIR_ENV})")
    geometry = _resolve_geometry(args.geometry)
    vocab_path = _require_file(args.vocab, "vocabulary")
    tok = Tokenizer.load(vocab_path)
    registry = corpus.load_registry(registry_path, tok)
    plan = ClusterPlan.load(plan_path)
    # The plan's clusters were made from one registry and their example
    # tokens with one vocabulary; a store keyed under others would match nothing.
    registry_sha256, vocab_sha256 = _sha256(registry_path), _sha256(vocab_path)
    _check_bound(plan.provenance, f"plan {plan_path}", "build-plan",
                 registry=(registry_path, registry_sha256), vocab=(vocab_path, vocab_sha256))
    store = KVStore(outdir)
    # Merging would keep entries this plan never chose, and serve them.
    if store.entries:
        raise CliError(f"cache directory {outdir} already holds a store: precompute into an empty or new directory")
    groups = Weaver(registry, tok, plan).cacheable_prefixes()
    store.precompute(groups, geometry)
    total = sum(map(len, groups.values()))
    provenance = {
        "plan_sha256": _sha256(plan_path),
        "vocab_sha256": vocab_sha256,
        "registry_sha256": registry_sha256,
        "geometry": geometry.to_dict(),
    }
    _atomic_write(Path(outdir) / "provenance.json", json.dumps(provenance, sort_keys=True, indent=1) + "\n")
    print(f"precomputed {total} prefixes, {store.total_bytes} KV bytes in {outdir}")
    return 0


# What each `<name>_sha256` an artifact records is the hash of.
_BOUND_INPUTS = {"registry": "registry", "dataset": "train dataset", "examples": "example db", "vocab": "vocabulary", "plan": "plan"}


def _check_bound(recorded: dict, artifact: str, rerun: str, **given: tuple[Path, str]) -> None:
    """Refuse `artifact` unless its provenance `recorded` holds, as `<name>_sha256`, the sha256 of each `name=(path, sha256)` given.

    An artifact used with inputs other than those it was built from serves
    nothing, and one that records no hash of an input is bound to none.
    """
    for name, (path, sha256) in given.items():
        key, what = f"{name}_sha256", f"{_BOUND_INPUTS[name]} {path}"
        if key not in recorded:
            raise CliError(f"{artifact} records no {key}: re-run {rerun} with {what}")
        if recorded[key] != sha256:
            raise CliError(f"{what} is not the one {artifact} was built from: use that one, or re-run {rerun}")


def _open_store(cachedir, **given: tuple[Path, str]) -> KVStore | None:
    """The store in `cachedir`, or None without one.

    A directory without a manifest is refused, and so is a store whose
    `provenance.json` does not bind it to the inputs `given` (see `_check_bound`).
    """
    if not cachedir:
        return None
    if not Path(cachedir, "manifest.json").exists():
        raise CliError(f"cache directory {cachedir} has no manifest.json: run precompute-cache into it, or run without a cache")
    store = KVStore(cachedir)
    provenance_path = Path(cachedir, "provenance.json")
    if not provenance_path.exists():
        raise CliError(f"cache directory {cachedir} has no provenance.json: re-run precompute-cache into an empty directory")
    provenance = shapes.load_json(provenance_path, _CACHE_PROVENANCE, f"cache provenance {provenance_path}", CliError)
    _check_bound(provenance, f"cache {cachedir}", "precompute-cache into an empty directory", **given)
    return store


# A hash that a cache's provenance.json lacks is refused by `_check_bound`.
_CACHE_PROVENANCE = shapes.Object(optional=dict.fromkeys(("plan_sha256", "vocab_sha256", "registry_sha256"), shapes.STR))


def cmd_run(args) -> int:
    cfg, base = _load_config(args.config)
    settings = _run_settings(args, cfg)
    configured = cfg.get("paths", {})
    paths = {k: base / configured[k] if k in configured else None for k in _RUN_PATHS}
    out_path = Path(args.trace) if args.trace else paths["trace"]
    if out_path is None:
        raise CliError("no trace output path configured")
    emit = None
    if args.emit:
        emit_dir = Path(args.emit)
        if emit_dir.exists() and not emit_dir.is_dir():
            raise CliError(f"--emit {emit_dir} is not a directory")

        def emit(doc):
            _atomic_write(emit_dir / f"{doc['query_id']}.json", json.dumps(doc, sort_keys=True, indent=1) + "\n")

    registry_path = _require_file(paths["registry"], "registry")
    train_path = _require_file(paths["train"], "train dataset")
    examples_path = _require_file(paths["examples"], "example db")
    vocab_path = _require_file(paths["vocab"], "vocabulary")
    bundle = pipeline.load_bundle(registry_path, train_path, _require_file(paths["test"], "test dataset"), examples_path, vocab_path)
    plan_path = _require_file(paths["plan"], "plan")
    plan = ClusterPlan.load(plan_path)
    registry = (registry_path, _sha256(registry_path))
    vocab = (vocab_path, _sha256(vocab_path))
    _check_bound(plan.provenance, f"plan {plan_path}", "build-plan", registry=registry,
                 dataset=(train_path, bundle.train_sha256), examples=(examples_path, _sha256(examples_path)), vocab=vocab)
    plan_sha256 = _sha256(plan_path)
    cachedir = args.cache or os.environ.get(CACHE_DIR_ENV) or paths["cachedir"]
    store = _open_store(cachedir, plan=(plan_path, plan_sha256), vocab=vocab, registry=registry)

    records = pipeline.run_queries(bundle, plan, store, settings, emit=emit)
    header = {
        "kind": "header",
        "provenance": {
            "config_sha256": _sha256(args.config),
            "plan_sha256": plan_sha256,
            "settings": settings.__dict__,
        },
    }
    lines = [json.dumps(header, sort_keys=True)] + [json.dumps(r.to_dict(), sort_keys=True) for r in records]
    _atomic_write(out_path, "\n".join(lines) + "\n")
    print(f"traced {len(records)} queries to {out_path}" + (f", one document per query in {args.emit}" if emit else ""))
    return 0


def _run_settings(args, cfg: dict) -> pipeline.RunSettings:
    """Each knob from its flag (checked here), else from its run.json section (checked on load); RunSettings supplies the rest."""
    flags = dict(vars(args), selective=None if args.selective is None else args.selective == "on")
    picked = {}
    for section, names in pipeline.RUN_SECTIONS.items():
        configured = cfg.get(section, {})
        for name in names:
            if flags[name] is not None:
                shapes.check(flags[name], _KNOBS[name], f"flag --{name.replace('_', '-')}", CliError)
                picked[name] = flags[name]
            elif name in configured:
                picked[name] = configured[name]
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


# A document `simulate` could have written.
_STAGE_NUMBERS = shapes.Object(dict.fromkeys(simulator.STAGES, shapes.NUMBER))
_CELL = shapes.Object({"seconds": _STAGE_NUMBERS, "fractions": _STAGE_NUMBERS, "total": shapes.NUMBER, "ssd_load_hidden": shapes.NUMBER})
_SPEEDUPS = shapes.Check(
    shapes.Object(dict.fromkeys(simulator.CELLS[1:], shapes.NUMBER)),
    lambda speedups: len(speedups) == len(simulator.CELLS[1:]),
    f"an object holding a number for each of {', '.join(simulator.CELLS[1:])} and nothing else",
)
_REPORT = shapes.Object({"cells": shapes.Object(dict.fromkeys(simulator.CELLS, _CELL)), "speedups": _SPEEDUPS})


def cmd_report(args) -> int:
    report_path = _require_file(args.report, "report file")
    doc = shapes.load_json(report_path, _REPORT, f"report file {report_path}", CliError)
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

    p = sub.add_parser("build-plan", help="cluster tools and select cached leaves")
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

    p = sub.add_parser("run", help="full per-query pipeline over the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--trace")
    p.add_argument("--cache")
    p.add_argument("--tau", type=float)
    p.add_argument("--scorer")
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--draft-len", dest="draft_len", type=int)
    p.add_argument("--selective", choices=("on", "off"))
    p.add_argument("--model")
    p.add_argument("--max-tokens", dest="max_tokens", type=int)
    p.add_argument("--emit", help="directory to write each query's prompts and decodes into, as <query_id>.json")
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

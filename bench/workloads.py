"""Seeded input generator for the benchmark workloads.

Every workload is built from the public tables of `agentaccel.fixtures`
(`registry_doc`, `ARCHETYPES`, `example_records`, `render_plan_dict`), so the
inputs have the shape of the bundled corpus.  The seed varies the content of
the test queries (names, times, topics); the training history, the archetype
mix and every knob are fixed per workload.  The same (workload, seed) always yields byte-identical files.

Run as a script to write one workload's inputs into a directory:

    python3 bench/workloads.py --workload bundled-scripted --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_agentaccel():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "agentaccel" / "__init__.py").is_file():
        raise SystemExit(f"error: agentaccel sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import agentaccel

    if Path(agentaccel.__file__).resolve().parent != SRC / "agentaccel":
        raise SystemExit(f"error: agentaccel imported from {agentaccel.__file__}, not {SRC}")
    return agentaccel


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: int  # copies of the fixture tool table, each with its own ids and themes
    train_scale: int  # multiplier on each archetype's fixture train count, per family
    test_scale: float  # multiplier on each archetype's fixture test count, per family
    model: str
    budget: int
    rank: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bundled-scripted",
            "paper reference shape: 16 tools, shared ~2.6k-token static prefix, scripted decode; "
            "online time spreads over exspec, weaver and kvstore match",
            families=1, train_scale=1, test_scale=5, model="scripted", budget=15, rank=8,
        ),
        Workload(
            "bundled-markov",
            "same inputs decoded by the Markov chain: lm.greedy_next dominates and "
            "modeled speedups differ from formulaic scripted output",
            families=1, train_scale=1, test_scale=5, model="markov", budget=15, rank=8,
        ),
        Workload(
            "wide-registry",
            "fixture tools replicated into 4 families (64 tools): set-up dominates "
            "(clusterplan selection, kvstore precompute and open) and planner prompts are ~3.5x longer",
            families=4, train_scale=2, test_scale=1, model="scripted", budget=30, rank=24,
        ),
    )
}

# One tag per family; prefixed to query text so no two families share a query.
FAMILY_TAGS = ("home", "work", "school", "travel")


def _family_suffix(family: int, families: int) -> str:
    return "" if families == 1 else f"_f{family}"


def _family_query(text: str, family: int, families: int) -> str:
    return text if families == 1 else f"{FAMILY_TAGS[family]} : {text}"


def _rename_ids(text: str, id_pattern, suffix: str) -> str:
    return id_pattern.sub(lambda m: m.group(0) + suffix, text) if suffix else text


def write(workload: Workload, seed: int, outdir) -> None:
    """Write one workload's registry, splits, examples, vocabulary and run.json."""
    import_agentaccel()
    from agentaccel import fixtures, weaver
    from agentaccel.tokenizer import Tokenizer

    families = workload.families
    base = fixtures.registry_doc()
    id_pattern = re.compile(r"\b(" + "|".join(sorted((t["id"] for t in base["tools"]), key=len, reverse=True)) + r")\b")

    themes, tools, examples = [], [], []
    for fam in range(families):
        suffix = _family_suffix(fam, families)
        themes.extend(t + suffix for t in base["themes"])
        for tool in base["tools"]:
            tools.append(dict(tool, id=tool["id"] + suffix, theme=tool["theme"] + suffix))
        for rec in fixtures.example_records():
            request, plan = rec["example_text"].split(" . plan : ", 1)
            request = "request : " + _family_query(request[len("request : "):], fam, families)
            examples.append(
                {
                    "id": rec["id"] + suffix,
                    "example_text": f"{request} . plan : {_rename_ids(plan, id_pattern, suffix)}",
                    "tools": [t + suffix for t in rec["tools"]],
                }
            )
    registry = {"themes": themes, "tools": tools}

    def split(name: str, split_seed: int, count_of) -> list[dict]:
        records = []
        for fam in range(families):
            suffix = _family_suffix(fam, families)
            for arch in fixtures.ARCHETYPES:
                rng = random.Random(f"{split_seed}:{name}:{fam}:{arch.name}")
                for _ in range(count_of(arch)):
                    rec = arch.build(rng)
                    plan = rec["plan"]
                    records.append(
                        {
                            "query": _family_query(rec["query"], fam, families),
                            "tools": sorted(t + suffix for t in rec["tools"]),
                            "plan": {
                                "nodes": [dict(n, call=n["call"] + suffix) for n in plan["nodes"]],
                                "edges": plan["edges"],
                            },
                        }
                    )
        return records

    # The training history is the same for every seed (the fixture default
    # seed draws it); the seed varies the test query stream.  Vocabulary ids
    # are assigned to the registry, examples and templates first, so every
    # cacheable prefix, and with it the plan and the store, is the same for
    # every seed as well.
    train = split("train", fixtures.DEFAULT_SEED, lambda a: a.train_count * workload.train_scale)
    test = split("test", seed, lambda a: round(a.test_count * workload.test_scale))

    tok = Tokenizer()
    for rec in tools:
        for key in ("id", "name", "description", "guidelines"):
            tok.tokenize(rec[key])
    for rec in examples:
        tok.tokenize(rec["example_text"])
    weaver.warm_vocabulary(tok)
    for rec in train + test:
        tok.tokenize(rec["query"])
        tok.tokenize(fixtures.render_plan_dict(rec["plan"]))

    config = fixtures.default_run_config()
    config["run"]["model"] = workload.model
    config["plan"].update(budget=workload.budget, rank=workload.rank)

    def jsonl(records):
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "registry.json").write_text(json.dumps(registry, indent=1, sort_keys=True) + "\n")
    (outdir / "train.jsonl").write_text(jsonl(train))
    (outdir / "test.jsonl").write_text(jsonl(test))
    (outdir / "examples.jsonl").write_text(jsonl(examples))
    tok.save(outdir / "vocab.json")
    (outdir / "run.json").write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

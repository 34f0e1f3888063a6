"""Shared corpus fixtures; session-scoped because generation is deterministic."""

import dataclasses
import hashlib

import pytest

from agentaccel import corpus, fixtures, pipeline
from agentaccel.clusterplan import build_plan
from agentaccel.kvstore import KVStore
from agentaccel.simulator import geometry_presets
from agentaccel.weaver import Weaver

PLAN_SEED = fixtures.DEFAULT_SEED
PLAN_BUDGET = 15
PLAN_RANK = 8


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("corpus")
    return fixtures.write_fixtures(outdir, seed=fixtures.DEFAULT_SEED)


@pytest.fixture(scope="session")
def bundle(fixture_paths):
    return pipeline.load_bundle(
        fixture_paths["registry"],
        fixture_paths["train"],
        fixture_paths["test"],
        fixture_paths["examples"],
        fixture_paths["vocab"],
    )


@pytest.fixture(scope="session")
def coactivation(bundle):
    return corpus.build_coactivation(bundle.train, bundle.registry)


@pytest.fixture(scope="session")
def plan(bundle, coactivation):
    return build_plan(
        coactivation,
        bundle.registry,
        bundle.examples,
        bundle.train,
        bundle.top_train_examples(),
        budget=PLAN_BUDGET,
        rank=PLAN_RANK,
        seed=PLAN_SEED,
    )


@pytest.fixture(scope="session")
def oracle_rag(bundle):
    return bundle.make_rag("oracle")


@pytest.fixture(scope="session")
def weaver(bundle, plan):
    return Weaver(bundle.registry, bundle.tokenizer, plan)


@pytest.fixture(scope="session")
def desk_geometry():
    return geometry_presets()["desk"]


@pytest.fixture(scope="session")
def populated_store(tmp_path_factory, weaver, desk_geometry):
    store = KVStore(tmp_path_factory.mktemp("kvcache"))
    store.precompute(weaver.cacheable_prefixes(), desk_geometry)
    return store


@pytest.fixture()
def precompute_cache_argv(tmp_path, fixture_paths, plan):
    """`precompute-cache` of the fixture plan, bound to the fixture registry and vocabulary, into `tmp_path / "cache"`."""
    hashes = {f"{name}_sha256": hashlib.sha256(fixture_paths[name].read_bytes()).hexdigest() for name in ("registry", "vocab")}
    bound = dataclasses.replace(plan, provenance={**plan.provenance, **hashes})
    (tmp_path / "plan.json").write_text(bound.to_json() + "\n")
    return [
        "precompute-cache",
        "--plan", str(tmp_path / "plan.json"),
        "--registry", str(fixture_paths["registry"]),
        "--vocab", str(fixture_paths["vocab"]),
        "--geometry", "desk",
        "--out", str(tmp_path / "cache"),
    ]

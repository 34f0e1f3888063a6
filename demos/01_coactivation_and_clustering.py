#!/usr/bin/env python3
# Offline planning walkthrough: co-activation statistics, NMF clustering,
# theme ordering, and budgeted cached-leaf selection on the bundled corpus.

import tempfile

from agentaccel import build_coactivation, build_plan, fixtures, pipeline
from agentaccel.clusterplan import sample_leaves
from agentaccel.simulator import coverage_curve, coverage_saturation_budget, geometry_presets

with tempfile.TemporaryDirectory(prefix="agentaccel-demo-") as workdir:
    paths = fixtures.write_fixtures(workdir)
    bundle = pipeline.load_bundle(
        paths["registry"], paths["train"], paths["test"], paths["examples"], paths["vocab"]
    )
print(f"corpus: {len(bundle.registry)} tools, {len(bundle.train)} training samples")

matrix = build_coactivation(bundle.train, bundle.registry)
print("\nhow likely is tool_y given tool_x was activated?")
anchor = "get_zoom_link"
for other in ("get_email_address", "compose_new_email", "get_phone_number"):
    print(f"  P({other} | {anchor}) = {matrix.conditional(other, anchor):.2f}")

top_examples = bundle.top_train_examples()
plan = build_plan(matrix, bundle.registry, bundle.examples, bundle.train,
                  top_examples, budget=15, rank=8, seed=fixtures.DEFAULT_SEED)
print("\nclusters in their fixed prompt order (theme groups adjacent):")
for cluster in plan.clusters:
    print(f"  [{cluster.id}] {cluster.theme:9s} {', '.join(cluster.tool_ids)}")

print("\ncached leaves (tool set, activated clusters, top example), in greedy pick order:")
for leaf in plan.cached_leaves:
    clusters = "-".join(str(c) for c in plan.activation_sequence(leaf.tools))
    print(f"  {', '.join(leaf.tools)} ({clusters}) + {leaf.example_id or 'no example'}")

leaves = sample_leaves(plan, bundle.train, top_examples)
saturation = coverage_saturation_budget(leaves)
points = coverage_curve(leaves, range(saturation + 1),
                        geometry_presets()["7b-class"], static_prefix_tokens=2641)
print("\nshare of the cacheable example tokens served vs cache budget, and storage cost:")
for p in points:
    bar = "#" * round(p.coverage_fraction * 40)
    print(f"  budget {p.budget:2d}  {p.coverage_fraction:6.1%}  {p.storage_bytes / 1e9:5.2f} GB  {bar}")

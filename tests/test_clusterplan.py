import dataclasses
import json
import random
import types
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentaccel import corpus
from agentaccel.clusterplan import (
    ClusterPlan,
    Cluster,
    PlanError,
    assign_clusters,
    build_plan,
    coverage,
    label_theme,
    choose_single_example,
    nmf_factorize,
    order_clusters,
    sample_leaves,
    select_combinations,
)
from agentaccel.corpus import CoactivationMatrix
from agentaccel.exspec import build_lut


def _block_matrix(blocks, strength=10):
    """Block-diagonal co-activation with `blocks` groups of given sizes."""
    size = sum(blocks)
    m = np.zeros((size, size))
    start = 0
    for b in blocks:
        m[start: start + b, start: start + b] = strength
        start += b
    return m


class TestNmf:
    def test_rank_above_size_rejected(self):
        with pytest.raises(ValueError):
            nmf_factorize(np.ones((3, 3)), rank=4)

    def test_negative_matrix_rejected(self):
        m = np.ones((3, 3))
        m[0, 1] = -1
        with pytest.raises(ValueError):
            nmf_factorize(m, rank=2)

    def test_rank_one_groups_everything(self):
        m = _block_matrix([2, 2])
        res = nmf_factorize(m, rank=1, seed=0)
        assign = np.argmax(res.w, axis=1)
        assert set(assign) == {0}

    @pytest.mark.parametrize("blocks", [[3, 3], [2, 3, 4]])
    def test_block_recovery_exact(self, blocks):
        # Oracle: the argmax partition must equal the constructed blocks.
        m = _block_matrix(blocks)
        res = nmf_factorize(m, rank=len(blocks), seed=1)
        assign = np.argmax(res.w, axis=1)
        expected_groups = []
        start = 0
        for b in blocks:
            expected_groups.append(set(range(start, start + b)))
            start += b
        got_groups = [set(np.where(assign == k)[0]) for k in sorted(set(assign))]
        assert sorted(map(sorted, got_groups)) == sorted(map(sorted, expected_groups))

    def test_error_non_increasing_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            size = rng.integers(4, 10)
            m = rng.random((size, size)) * 10
            m = m + m.T  # symmetric non-negative, like a co-activation matrix
            res = nmf_factorize(m, rank=int(rng.integers(1, size + 1)), seed=trial, iters=80)
            errs = res.err_history
            for prev, cur in zip(errs, errs[1:]):
                assert cur <= prev * (1 + 1e-9) + 1e-12

    def test_determinism(self):
        m = _block_matrix([2, 3])
        a = nmf_factorize(m, rank=2, seed=9)
        b = nmf_factorize(m, rank=2, seed=9)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.h, b.h)

    def test_factors_nonnegative(self):
        m = _block_matrix([3, 2])
        res = nmf_factorize(m, rank=2, seed=4)
        assert np.all(res.w >= 0) and np.all(res.h >= 0)

    def test_fixture_matrix_cluster_sizes(self, coactivation, plan):
        sizes = [len(c.tool_ids) for c in plan.clusters]
        assert all(2 <= s <= 6 for s in sizes)
        assert sum(sizes) == coactivation.size


def _registry(themes, tools):
    return corpus.ToolRegistry(list(themes), [corpus.Tool(t, t, th, (1,), (2,)) for t, th in tools])


class TestAssignment:
    def test_one_hot_row_joins_that_cluster(self):
        matrix = CoactivationMatrix(["a", "b"], np.array([[2, 0], [0, 2]]))
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        groups = assign_clusters(w, matrix)
        assert groups == {1: ["a"], 0: ["b"]}

    def test_zero_marginal_tool_gets_singleton(self):
        matrix = CoactivationMatrix(["a", "b", "c"], np.array([[2, 1, 0], [1, 2, 0], [0, 0, 0]]))
        w = np.array([[1.0, 0.0], [1.0, 0.0], [0.3, 0.3]])
        groups = assign_clusters(w, matrix)
        assert ["c"] in groups.values()
        singleton_ids = [cid for cid, tools in groups.items() if tools == ["c"]]
        assert singleton_ids[0] >= w.shape[1]

    def test_majority_theme(self):
        registry = _registry(
            ["calendar", "email"],
            [("e1", "email"), ("e2", "email"), ("c1", "calendar")],
        )
        assert label_theme(["e1", "e2", "c1"], registry) == "email"

    def test_theme_tie_breaks_lexicographically(self):
        registry = _registry(["maps", "email"], [("m1", "maps"), ("e1", "email")])
        assert label_theme(["m1", "e1"], registry) == "email"

    def test_partition_property(self, plan, bundle):
        seen = []
        for c in plan.clusters:
            seen.extend(c.tool_ids)
        assert sorted(seen) == bundle.registry.tool_ids()


class TestOrdering:
    def test_same_theme_clusters_adjacent(self, plan):
        themes = [c.theme for c in plan.clusters]
        # Once a theme group ends it must not reappear.
        seen = set()
        previous = None
        for theme in themes:
            if theme != previous:
                assert theme not in seen
                seen.add(theme)
            previous = theme

    def test_order_matches_theme_then_id_sort(self, plan, bundle):
        expected = sorted(plan.clusters, key=lambda c: (bundle.registry.theme_rank(c.theme), c.id))
        assert list(plan.clusters) == expected

    def test_singleton_order(self):
        registry = _registry(["x"], [("a", "x"), ("b", "x")])
        groups = {0: ["a", "b"]}
        ordered = order_clusters(groups, registry, examples=[])
        assert len(ordered) == 1 and ordered[0].tool_ids == ("a", "b")

    def test_hand_computed_sort(self):
        registry = _registry(
            ["email", "maps"],
            [("e1", "email"), ("e2", "email"), ("m1", "maps"), ("m2", "maps")],
        )
        groups = {2: ["m1"], 0: ["e1"], 1: ["m2"], 3: ["e2"]}
        ordered = order_clusters(groups, registry, examples=[])
        assert [c.id for c in ordered] == [0, 3, 1, 2]


class TestActivation:
    def _plan_of(self, ids_tools):
        clusters = tuple(Cluster(cid, tuple(tools), "x", f"e{cid}", (1,)) for cid, tools in ids_tools)
        return ClusterPlan(clusters=clusters)

    def test_plain_intersection(self):
        plan = self._plan_of([(1, ["a", "b"]), (3, ["c"]), (2, ["d"])])
        assert plan.activation_sequence({"a", "c"}) == (1, 3)

    def test_empty_tools(self):
        plan = self._plan_of([(1, ["a"])])
        assert plan.activation_sequence(set()) == ()

    def test_randomized_against_bruteforce(self):
        rng = random.Random(41)
        tools = [f"t{i}" for i in range(12)]
        assignment = {t: i % 5 for i, t in enumerate(tools)}
        ids_tools = [(cid, [t for t in tools if assignment[t] == cid]) for cid in range(5)]
        plan = self._plan_of(ids_tools)
        for _ in range(100):
            chosen = set(rng.sample(tools, rng.randint(0, 6)))
            expected = tuple(
                cid for cid, members in ids_tools if any(t in chosen for t in members)
            )
            assert plan.activation_sequence(chosen) == expected


def _brute_coverage(streams, keys):
    total = 0
    for stream in streams:
        best = 0
        for key in keys:
            length = len(key)
            while tuple(key[:length]) != tuple(stream[:length]):
                length -= 1
            best = max(best, length)
        total += best
    return total


class TestCoverage:
    def test_empty_cache_is_zero(self):
        assert coverage([(1, 2), (3,)], set()) == 0

    def test_prefix_reuse_with_tail_cut(self):
        # A stream [1, 3, 2] against cached {[1], [1, 3]} reuses two tokens.
        assert coverage([(1, 3, 2)], {(1,), (1, 3)}) == 2

    def test_a_key_leaving_the_stream_serves_its_common_head(self):
        # As the store serves it: an entry longer than the match, tail cut off.
        assert coverage([(1, 2, 3), (1, 2)], [(1, 2, 9, 9)]) == 4

    def test_randomized_against_bruteforce(self):
        rng = random.Random(43)
        for _ in range(60):
            streams = [
                tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 8)))
                for _ in range(rng.randint(1, 10))
            ]
            prefixes = sorted({s[:ln] for s in streams for ln in range(1, len(s) + 1)})
            keys = set(rng.sample(prefixes, min(len(prefixes), rng.randint(0, 6))))
            keys |= {tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 6))) for _ in range(rng.randint(0, 2))}
            assert coverage(streams, keys) == _brute_coverage(streams, keys)


def _reference_select(budget, leaves):
    """Greedy selection by a full coverage recount for every candidate in every round."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    streams = dict(leaves)
    queries = [stream for _, stream in leaves]
    chosen = []
    current = 0
    for _ in range(budget):
        best = best_key = None
        for tools in streams:
            if tools in chosen:
                continue
            gain = coverage(queries, [streams[t] for t in chosen + [tools]]) - current
            key = (-gain, len(streams[tools]), tools)
            if best_key is None or key < best_key:
                best, best_key = tools, key
        if best is None or best_key[0] == 0:
            break
        chosen.append(best)
        current -= best_key[0]
    return chosen


@st.composite
def _leaf_lists(draw):
    # A few tool sets, each with one stream cut from a shared base and
    # extended over a 3-token alphabet: streams that are heads of others,
    # equal streams of different tool sets, empty streams; then the queries,
    # drawn with replacement so that counts tie.
    base = draw(st.lists(st.integers(0, 2), max_size=8))
    tool_sets = draw(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=3, unique=True).map(lambda t: tuple(sorted(t))),
                              min_size=1, max_size=6, unique=True))
    streams = {
        tools: tuple(base[: draw(st.integers(0, len(base)))] + draw(st.lists(st.integers(0, 2), max_size=4)))
        for tools in tool_sets
    }
    return [(tools, streams[tools]) for tools in draw(st.lists(st.sampled_from(tool_sets), max_size=14))]


def _random_leaves(rng):
    """Queries over up to six tool sets whose streams share random heads."""
    base = [rng.randint(0, 3) for _ in range(rng.randint(0, 10))]
    streams = {}
    for i in range(rng.randint(1, 6)):
        streams[(f"t{i}",)] = tuple(base[: rng.randint(0, len(base))] + [rng.randint(0, 3) for _ in range(rng.randint(0, 4))])
    tool_sets = sorted(streams)
    return [(tools, streams[tools]) for tools in (rng.choice(tool_sets) for _ in range(rng.randint(1, 12)))]


class TestSelection:
    def test_budget_zero(self):
        assert select_combinations(0, [(("a",), (1, 2))]) == []

    def test_identical_streams_take_one_slot(self):
        # Two tool sets with one stream: the first pick covers both, so the
        # second adds nothing and the budget is not spent on it.
        leaves = [(("a",), (1, 2))] * 2 + [(("a", "b"), (1, 2))] * 3
        assert select_combinations(2, leaves) == [("a",)]

    def test_prefixes_of_a_leaf_are_no_candidates(self):
        # The stream's own tool set covers every head of it: one pick, not a chain.
        leaves = [(("a", "b", "c"), (1, 2, 3))] * 3
        assert select_combinations(3, leaves) == [("a", "b", "c")]

    def test_early_return_when_candidates_exhaust(self):
        assert select_combinations(5, [(("a",), (1,))]) == [("a",)]

    def test_deterministic_tie_break(self):
        # Equal gains: the shorter stream wins, then the smaller tool-id tuple.
        assert select_combinations(1, [(("b",), (2,)), (("a",), (1,))]) == [("a",)]
        assert select_combinations(1, [(("a",), (1, 1))] + [(("b",), (2,))] * 2) == [("b",)]

    def test_gain_counts_what_a_pick_adds_to_queries_already_served(self):
        # (1, 2) is served 2 tokens by (1, 2, 3) already; (5,) adds its own 1 x 2.
        leaves = [(("x",), (1, 2, 3))] * 3 + [(("y",), (1, 2))] * 4 + [(("z",), (5,))] * 2
        assert select_combinations(3, leaves) == [("x",), ("z",)]

    @settings(max_examples=300, deadline=None)
    @given(leaves=_leaf_lists(), budget=st.integers(0, 8))
    def test_matches_reference_selection(self, leaves, budget):
        assert select_combinations(budget, leaves) == _reference_select(budget, leaves)

    def test_each_round_attains_max_marginal_gain(self):
        # Exhaustive per-round check on small instances.
        rng = random.Random(47)
        for _ in range(40):
            leaves = _random_leaves(rng)
            streams, queries = dict(leaves), [stream for _, stream in leaves]
            chosen = select_combinations(rng.randint(0, 4), leaves)
            current: list = []
            for pick in chosen:
                base = coverage(queries, current)
                best_gain = max(coverage(queries, current + [streams[t]]) - base for t in streams)
                assert coverage(queries, current + [streams[pick]]) - base == best_gain > 0
                current.append(streams[pick])

    def test_greedy_trajectory_monotone(self):
        rng = random.Random(53)
        for _ in range(20):
            leaves = _random_leaves(rng)
            streams, queries = dict(leaves), [stream for _, stream in leaves]
            chosen = select_combinations(4, leaves)
            values = [coverage(queries, [streams[t] for t in chosen[:i]]) for i in range(len(chosen) + 1)]
            assert values == sorted(set(values))

    def test_coverage_monotone_in_added_prefix(self):
        rng = random.Random(59)
        for _ in range(30):
            queries = [stream for _, stream in _random_leaves(rng)]
            prefixes = sorted({s[:ln] for s in queries for ln in range(1, len(s) + 1)})
            base_set = rng.sample(prefixes, min(len(prefixes), 2))
            base = coverage(queries, base_set)
            for p in prefixes:
                assert coverage(queries, base_set + [p]) >= base

    def test_fixture_leaves(self, plan, bundle):
        # Every stream is the plan's leaf of its tool set, then the tokens of
        # that query's top example, and the picks are distinct candidates, as
        # many as the budget allows.
        top = bundle.top_train_examples()
        leaves = sample_leaves(plan, bundle.train, top)
        assert [key for key, _ in leaves] == [(tuple(sorted(s.gt_tools)), ex.id) for s, ex in zip(bundle.train, top)]
        for ((tools, _), stream), example in zip(leaves, top):
            clustered, singles = plan.leaf(tools)
            assert stream == clustered + singles + example.example_tokens and clustered
        # Samples of one candidate share its stream.
        assert len({id(stream) for _, stream in leaves}) == len({key for key, _ in leaves})
        budget = plan.provenance["budget"]
        assert len(set(plan.cached_leaves)) == len(plan.cached_leaves) == budget
        assert [(leaf.tools, leaf.example_id) for leaf in plan.cached_leaves] == select_combinations(budget, leaves)
        by_id = {ex.id: ex for ex in top}
        assert all(leaf.example_tokens == by_id[leaf.example_id].example_tokens for leaf in plan.cached_leaves)

    def test_two_picks_may_share_a_tool_set(self, plan):
        # The fixture's budget caches two top examples behind one leaf.
        tool_sets = [leaf.tools for leaf in plan.cached_leaves]
        assert len(set(tool_sets)) < len(tool_sets)

    def test_a_tool_set_without_an_eligible_example_is_its_leaf(self, plan):
        sample = types.SimpleNamespace(gt_tools=frozenset(plan.clusters[0].tool_ids))
        [(key, stream)] = sample_leaves(plan, [sample], [None])
        assert key == (tuple(sorted(sample.gt_tools)), "")
        assert stream == tuple(chain.from_iterable(plan.leaf(key[0])))


class TestPlanArtifact:
    def test_round_trip(self, plan):
        text = plan.to_json()
        again = ClusterPlan.from_json(text)
        assert again == plan
        assert again.to_json() == text

    def test_round_trip_with_a_draft_table(self, plan):
        table = build_lut([1, 2, 3, 0, 1, 2, 4, 1, 2, 4], 3)
        carrying = dataclasses.replace(plan, draft_table=table)
        again = ClusterPlan.from_json(carrying.to_json())
        assert again == carrying
        assert again.draft_table == table

    @pytest.mark.parametrize(
        "table",
        [
            pytest.param([], id="not_an_object"),
            pytest.param({"n": 3, "filler": 1, "source_token_count": 4}, id="entries_missing"),
            pytest.param({"n": 3, "filler": 1, "source_token_count": 4, "entries": [[1, 2, 3]]}, id="entry_short"),
            pytest.param({"n": 3, "filler": 1, "source_token_count": 4, "entries": [[1, 2, 3, True]]}, id="count_a_bool"),
            pytest.param({"n": 3, "filler": "x", "source_token_count": 4, "entries": []}, id="filler_a_string"),
        ],
    )
    def test_malformed_draft_table_is_refused(self, plan, table):
        doc = json.loads(plan.to_json())
        doc["draft_table"] = table
        with pytest.raises(PlanError, match="draft_table"):
            ClusterPlan.from_json(json.dumps(doc))

    def test_determinism_same_inputs_same_plan(self, bundle, coactivation, plan):
        rebuilt = build_plan(
            coactivation,
            bundle.registry,
            bundle.examples,
            bundle.train,
            bundle.top_train_examples(),
            budget=15,
            rank=8,
            seed=11,
        )
        assert rebuilt.to_json() == plan.to_json()

    def test_combinations_respect_plan_order(self, plan, bundle):
        # Each cached leaf's tool set is a train tool set, as sorted tool ids;
        # a plan holding one out of order, or one naming a tool in no
        # cluster, is refused.
        train = {tuple(sorted(s.gt_tools)) for s in bundle.train}
        assert plan.cached_leaves and {leaf.tools for leaf in plan.cached_leaves} <= train
        for tools in ((plan.cached_leaves[0].tools[::-1]), ("no_such_tool",)):
            doc = json.loads(plan.to_json())
            doc["cached_leaves"] = [{"tools": list(tools), "example_id": "", "example_tokens": []}]
            with pytest.raises(PlanError):
                ClusterPlan.from_json(json.dumps(doc))

    def test_single_examples_are_chosen_offline(self, plan, bundle):
        chosen = {t: choose_single_example(t, bundle.examples) for t in bundle.registry.tool_ids()}
        assert plan.single_examples == {t: (ex.id, ex.example_tokens) for t, ex in chosen.items() if ex is not None}
        assert plan.single_examples

    def test_plan_of_the_older_format_is_refused(self, plan):
        doc = json.loads(plan.to_json())
        doc["cached_combinations"] = [[doc["order"][0]]]
        with pytest.raises(PlanError, match="re-run build-plan"):
            ClusterPlan.from_json(json.dumps(doc))

    def test_plan_of_cached_tool_sets_is_refused(self, plan):
        doc = json.loads(plan.to_json())
        doc["cached_tool_sets"] = [leaf["tools"] for leaf in doc.pop("cached_leaves")]
        with pytest.raises(PlanError, match="holds cached_tool_sets, .*: re-run build-plan"):
            ClusterPlan.from_json(json.dumps(doc))

    def test_cluster_examples_cover_exact_tool_sets(self, plan, bundle):
        by_id = {e.id: e for e in bundle.examples}
        for cluster in plan.clusters:
            if cluster.example_id in by_id:
                assert by_id[cluster.example_id].tools == frozenset(cluster.tool_ids)
            else:
                assert cluster.example_id.startswith("synthetic:")
                assert cluster.example_tokens

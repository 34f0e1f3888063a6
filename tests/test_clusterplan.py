import dataclasses
import itertools
import json
import random

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
    nmf_factorize,
    order_clusters,
    prefix_counts,
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
        return ClusterPlan(clusters=clusters, cached_combinations=())

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


def _brute_coverage(sequences, combos):
    total = 0
    for seq in sequences:
        best = 0
        for combo in combos:
            combo = tuple(combo)
            if len(combo) <= len(seq) and tuple(seq[: len(combo)]) == combo:
                best = max(best, len(combo))
        total += best
    return total


class TestCoverage:
    def test_empty_cache_is_zero(self):
        assert coverage([(1, 2), (3,)], set()) == 0

    def test_prefix_reuse_with_tail_cut(self):
        # A sequence [1, 3, 2] against cached {[1], [1, 3]} reuses two clusters.
        assert coverage([(1, 3, 2)], {(1,), (1, 3)}) == 2

    def test_randomized_against_bruteforce(self):
        rng = random.Random(43)
        for _ in range(60):
            sequences = [
                tuple(sorted(rng.sample(range(8), rng.randint(1, 5))))
                for _ in range(rng.randint(1, 10))
            ]
            prefixes = set()
            for seq in sequences:
                for ln in range(1, len(seq) + 1):
                    prefixes.add(seq[:ln])
            combos = set(rng.sample(sorted(prefixes), min(len(prefixes), rng.randint(0, 6))))
            assert coverage(sequences, combos) == _brute_coverage(sequences, combos)


def _reference_select(budget, sequences):
    """Greedy selection by a full coverage recount for every candidate in every round."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    prefixes = set()
    for seq in sequences:
        seq = tuple(seq)
        for length in range(1, len(seq) + 1):
            prefixes.add(seq[:length])

    chosen = []
    chosen_set = set()
    current = coverage(sequences, chosen_set)
    for _ in range(budget):
        options = [
            p
            for p in prefixes
            if p not in chosen_set and (len(p) == 1 or p[:-1] in chosen_set)
        ]
        if not options:
            break
        best = None
        best_key = None
        for p in options:
            gain = coverage(sequences, chosen_set | {p}) - current
            key = (-gain, len(p), p)
            if best_key is None or key < best_key:
                best_key = key
                best = p
        chosen.append(best)
        chosen_set.add(best)
        current += -best_key[0]
    return chosen


@st.composite
def _sequence_lists(draw):
    # A small pool drawn with replacement: repeated sequences, tied prefix
    # counts, empty and unsorted sequences (repeated clusters included).
    pool = draw(st.lists(st.lists(st.integers(0, 4), max_size=5).map(tuple), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=14))


class TestSelection:
    def test_budget_zero(self):
        assert select_combinations(0, [(1, 2)]) == []

    def test_identical_sequences_build_chain(self):
        # Oracle: brute force over all candidate pairs confirms optimality.
        sequences = [(1, 2)] * 4
        got = select_combinations(2, sequences)
        assert got == [(1,), (1, 2)]
        best = max(
            (
                coverage(sequences, set(pair))
                for pair in itertools.combinations([(1,), (1, 2), (2,)], 2)
            ),
        )
        assert coverage(sequences, set(got)) == best

    def test_candidate_rule_requires_parent(self):
        sequences = [(1, 2, 3)] * 3
        got = select_combinations(3, sequences)
        assert got == [(1,), (1, 2), (1, 2, 3)]

    def test_early_return_when_candidates_exhaust(self):
        sequences = [(1,)]
        got = select_combinations(5, sequences)
        assert got == [(1,)]

    def test_deterministic_tie_break(self):
        # Two disjoint singletons with equal weight: the lexicographically
        # smaller cluster id wins the first round.
        sequences = [(2,), (1,)]
        got = select_combinations(1, sequences)
        assert got == [(1,)]

    @settings(max_examples=300, deadline=None)
    @given(sequences=_sequence_lists(), budget=st.integers(0, 25))
    def test_matches_reference_selection(self, sequences, budget):
        assert select_combinations(budget, sequences) == _reference_select(budget, sequences)

    def test_prefix_counts(self):
        counts = prefix_counts([(1, 2), (1,), (), (1, 2), (2, 1)])
        assert counts == {(1,): 3, (1, 2): 2, (2,): 1, (2, 1): 1}

    def _random_instance(self, rng):
        n_clusters = rng.randint(2, 6)
        sequences = []
        for _ in range(rng.randint(1, 12)):
            length = rng.randint(1, n_clusters)
            sequences.append(tuple(sorted(rng.sample(range(n_clusters), length))))
        return sequences

    def test_each_round_attains_max_marginal_gain(self):
        # Exhaustive per-round check on small instances.
        rng = random.Random(47)
        for _ in range(40):
            sequences = self._random_instance(rng)
            budget = rng.randint(0, 4)
            chosen = select_combinations(budget, sequences)
            prefixes = set()
            for seq in sequences:
                for ln in range(1, len(seq) + 1):
                    prefixes.add(seq[:ln])
            current: set = set()
            for pick in chosen:
                options = [
                    p for p in prefixes if p not in current and (len(p) == 1 or p[:-1] in current)
                ]
                base = coverage(sequences, current)
                best_gain = max(coverage(sequences, current | {p}) - base for p in options)
                pick_gain = coverage(sequences, current | {pick}) - base
                assert pick_gain == best_gain
                current.add(pick)

    def test_greedy_trajectory_monotone(self):
        rng = random.Random(53)
        for _ in range(20):
            sequences = self._random_instance(rng)
            chosen = select_combinations(4, sequences)
            values = []
            current: set = set()
            for pick in chosen:
                current.add(pick)
                values.append(coverage(sequences, current))
            assert values == sorted(values)

    def test_coverage_monotone_in_added_prefix(self):
        rng = random.Random(59)
        for _ in range(30):
            sequences = self._random_instance(rng)
            prefixes = sorted({seq[:ln] for seq in sequences for ln in range(1, len(seq) + 1)})
            base_set = set(rng.sample(prefixes, min(len(prefixes), 2)))
            base = coverage(sequences, base_set)
            for p in prefixes:
                assert coverage(sequences, base_set | {p}) >= base


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
            budget=15,
            rank=8,
            seed=11,
        )
        assert rebuilt.to_json() == plan.to_json()

    def test_combinations_respect_plan_order(self, plan):
        positions = {c.id: i for i, c in enumerate(plan.clusters)}
        for combo in plan.cached_combinations:
            pos = [positions[cid] for cid in combo]
            assert pos == sorted(pos)

    def test_cluster_examples_cover_exact_tool_sets(self, plan, bundle):
        by_id = {e.id: e for e in bundle.examples}
        for cluster in plan.clusters:
            if cluster.example_id in by_id:
                assert by_id[cluster.example_id].tools == frozenset(cluster.tool_ids)
            else:
                assert cluster.example_id.startswith("synthetic:")
                assert cluster.example_tokens

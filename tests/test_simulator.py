import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentaccel.clusterplan import select_combinations
from agentaccel.kvstore import kv_size
from agentaccel.simulator import (
    IDEAL_TAX,
    MEASURED_TAX,
    DeviceSpec,
    RoleTrace,
    SimConfig,
    TaxCurve,
    TraceError,
    TraceRecord,
    calibration_trace,
    coverage_curve,
    coverage_saturation_budget,
    decode_seconds,
    decode_token_latency,
    device_presets,
    geometry_presets,
    prefill_latency,
    simulate_pipeline,
    specdec_speedup,
)

GEO_7B = geometry_presets()["7b-class"]
M4_PRO = device_presets()["m4-pro"]


class TestPresets:
    def test_all_devices_load(self):
        presets = device_presets()
        for name in ("h100", "h200", "b200", "mi325x", "tpu-v6e", "m4-max", "snapdragon-x-elite", "ryzen-ai-max-395", "m4-pro"):
            assert name in presets
            assert presets[name].compute_tops > 0

    def test_geometries_load(self):
        assert geometry_presets()["7b-class"].kv_bytes_per_token == 131072


class TestPrefill:
    def test_zero_tokens(self):
        assert prefill_latency(0, GEO_7B, M4_PRO) == 0.0

    def test_linearity(self):
        one = prefill_latency(500, GEO_7B, M4_PRO)
        two = prefill_latency(1000, GEO_7B, M4_PRO)
        assert two == pytest.approx(2 * one)

    def test_independent_recomputation(self):
        # Spreadsheet-style recount: 2 * 7e9 params * 1711 tokens over
        # 23.8 TOPS at 35% utilization.
        tokens = 1711
        expected = (2 * 7e9 * tokens) / (23.8e12 * 0.35)
        assert prefill_latency(tokens, GEO_7B, M4_PRO) == pytest.approx(expected)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            prefill_latency(-1, GEO_7B, M4_PRO)


class TestDecodeAndVerify:
    def test_decode_token_is_weight_read_time(self):
        assert decode_token_latency(GEO_7B, M4_PRO) == pytest.approx(14e9 / 273e9)


class TestTaxCurve:
    def test_measured_ratio(self):
        assert MEASURED_TAX(2) / MEASURED_TAX(1) == pytest.approx(1.86)

    def test_monotonicity(self):
        curve = TaxCurve([(1, 1.0), (2, 1.86), (6, 2.4)])
        costs = [curve(k) for k in range(1, 10)]
        assert costs == sorted(costs)

    def test_interpolation_between_configured_points(self):
        # Hand interpolation at k=3 between (2, 1.86) and (6, 2.4).
        curve = TaxCurve([(1, 1.0), (2, 1.86), (6, 2.4)])
        expected = 1.86 + (2.4 - 1.86) * (3 - 2) / (6 - 2)
        assert curve(3) == pytest.approx(expected)

    def test_flat_extension_beyond_last_point(self):
        assert MEASURED_TAX(5) == pytest.approx(1.86)

    def test_width_one_is_unit(self):
        assert MEASURED_TAX(1) == 1.0
        with pytest.raises(ValueError):
            MEASURED_TAX(0)

    def test_curve_requires_unit_anchor(self):
        with pytest.raises(ValueError):
            TaxCurve([(1, 1.5)])


class TestDecodeSeconds:
    def test_hand_count(self):
        # Three drafting rounds of width 5 (flat at 1.86) and two fallback steps.
        stats = {"rounds": 5, "fallbacks": 2, "draft_len": 4}
        assert decode_seconds(stats, 0.5, MEASURED_TAX) == pytest.approx(3 * 0.5 * 1.86 + 2 * 0.5)
        assert decode_seconds(stats, 0.5, IDEAL_TAX) == pytest.approx(5 * 0.5)

    @pytest.mark.parametrize("stats", [{}, {"rounds": 1, "fallbacks": 2, "draft_len": 4}, {"rounds": 1, "draft_len": 4}])
    def test_unpriceable_stats_raise(self, stats):
        with pytest.raises(TraceError):
            decode_seconds(stats, 1.0, IDEAL_TAX)


class TestSpecdecSpeedup:
    def test_formula_instantiation_alpha_zero(self):
        # alpha = 0, free draft, ideal tax, one draft per round: one
        # guaranteed token per round at one unit of cost.
        assert specdec_speedup(7.0, 0.0, 0.0, 1, IDEAL_TAX) == pytest.approx(1.0)

    def test_alpha_one_free_draft_hits_round_bound(self):
        for n in (1, 2, 4, 8):
            assert specdec_speedup(7.0, 0.0, 1.0, n, IDEAL_TAX) == pytest.approx(n + 1)

    def test_monotone_in_alpha(self):
        values = [specdec_speedup(7.0, 1.0, a / 10, 4, MEASURED_TAX) for a in range(11)]
        assert values == sorted(values)

    def test_tax_never_helps(self):
        for alpha in (0.0, 0.33, 0.9):
            for n in (1, 2, 4):
                with_tax = specdec_speedup(7.0, 1.0, alpha, n, MEASURED_TAX)
                no_tax = specdec_speedup(7.0, 1.0, alpha, n, IDEAL_TAX)
                assert with_tax <= no_tax

    def test_draft_size_ordering_matches_tradeoff_table(self):
        # Accuracy/size pairs of the four candidate draft models; the 1B
        # draft must rank first in both the ideal and the taxed column.
        rows = {"3b": (3.0, 0.42), "1b": (1.0, 0.33), "160m": (0.16, 0.02), "68m": (0.068, 0.02)}
        for tax in (IDEAL_TAX, MEASURED_TAX):
            vals = {name: specdec_speedup(7.0, size, alpha, 1, tax) for name, (size, alpha) in rows.items()}
            assert max(vals, key=vals.get) == "1b"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            specdec_speedup(7.0, 1.0, 1.5, 1, IDEAL_TAX)
        with pytest.raises(ValueError):
            specdec_speedup(7.0, 1.0, 0.5, 0, IDEAL_TAX)


def _random_trace(rng, n_records=5):
    """Well-formed records: decode stats and token accounting consistent
    with what the pipeline emits (every round advances at least one token,
    reconstruction never increases the uncached region)."""
    records = []
    for i in range(n_records):
        roles = {}
        for role in ("planner", "arbiter"):
            total = rng.randint(200, 3000)
            uncache_b = rng.randint(total // 2, total)
            weaver_total = total + rng.randint(0, 2000)
            uncache_w = rng.randint(0, uncache_b - 100)
            drafting = rng.randint(0, 40)
            fallbacks = rng.randint(0, 40)
            accepted = rng.randint(0, drafting * 4)
            out = drafting + accepted + fallbacks
            roles[role] = {
                "baseline_total": total,
                "baseline_uncacheable": uncache_b,
                "weaver_total": weaver_total,
                "weaver_uncacheable": uncache_w,
                "output_tokens": out,
                "decode": {
                    "rounds": drafting + fallbacks,
                    "fallbacks": fallbacks,
                    "drafts_generated": drafting * 4,
                    "drafts_accepted": accepted,
                    "draft_len": 4,
                },
            }
        records.append(TraceRecord.from_dict({"query_id": f"r{i}", "tool_count": rng.randint(1, 5), **roles}))
    return records


class TestSimulatePipeline:
    def test_breakdown_additivity_and_fraction_normalization(self):
        rng = random.Random(3)
        config = SimConfig(device=M4_PRO, geometry=GEO_7B)
        report = simulate_pipeline(_random_trace(rng), config)
        for cell in report.cells.values():
            assert cell.total == pytest.approx(sum(cell.seconds.values()))
            assert sum(cell.fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_combined_cell_dominates_each_single_one(self):
        rng = random.Random(5)
        config = SimConfig(device=M4_PRO, geometry=GEO_7B)
        for _ in range(10):
            report = simulate_pipeline(_random_trace(rng), config)
            assert report.speedups["pw_es"] >= max(report.speedups["pw"], report.speedups["es"]) - 1e-12

    def test_replay_determinism(self):
        rng = random.Random(7)
        records = _random_trace(rng)
        config = SimConfig(device=M4_PRO, geometry=GEO_7B)
        a = simulate_pipeline(records, config).to_dict()
        b = simulate_pipeline(records, config).to_dict()
        assert a == b

    def test_schema_validation_errors(self):
        with pytest.raises(TraceError):
            TraceRecord.from_dict({"query_id": "x", "tool_count": 1, "planner": {}})
        with pytest.raises(TraceError):
            RoleTrace.from_dict({"baseline_total": 10}, "w")
        bad = RoleTrace(100, 90, 100, 10, 5, decode={})
        record = TraceRecord("q", 1, bad, bad)
        with pytest.raises(TraceError):
            simulate_pipeline([record], SimConfig(device=M4_PRO, geometry=GEO_7B))

    def test_uncacheable_above_total_rejected(self):
        with pytest.raises(TraceError, match="exceed"):
            RoleTrace.from_dict(
                {
                    "baseline_total": 10,
                    "baseline_uncacheable": 11,
                    "weaver_total": 10,
                    "weaver_uncacheable": 0,
                    "output_tokens": 1,
                    "decode": {"rounds": 1, "fallbacks": 0, "draft_len": 4},
                },
                "w",
            )


@pytest.fixture(scope="module")
def calibration_report():
    config = SimConfig(device=M4_PRO, geometry=GEO_7B, verify_tax=IDEAL_TAX)
    return simulate_pipeline(calibration_trace(), config)


class TestCalibration:
    """The shipped averaged-workload trace against the m4-pro cost model."""

    @pytest.fixture()
    def report(self, calibration_report):
        return calibration_report

    def test_baseline_stage_fractions(self, report):
        fr = report.cells["baseline"].fractions
        prefill = fr["planner_prefill"] + fr["arbiter_prefill"]
        decode = fr["planner_decode"] + fr["arbiter_decode"]
        assert prefill == pytest.approx(0.217, abs=0.05)
        assert decode == pytest.approx(0.687, abs=0.05)

    def test_end_to_end_speedup_bracket(self, report):
        assert 1.3 <= report.speedups["pw_es"] <= 1.9
        assert report.speedups["pw_es"] >= max(report.speedups["pw"], report.speedups["es"])

    def test_ssd_load_is_minor_share_of_reconstructed_prefill(self, report):
        cell = report.cells["pw_es"]
        prefill = cell.seconds["planner_prefill"] + cell.seconds["arbiter_prefill"]
        assert 0 < cell.seconds["ssd_load"] < 0.2 * (prefill + cell.seconds["ssd_load"])


class TestCoverageCurve:
    def _inputs(self):
        sequences = [(1,)] * 6 + [(1, 2)] * 5 + [(3,)] * 3 + [(1, 2, 4)] * 2 + [(5,)] * 2 + [(3, 5)]
        cluster_tokens = {1: 40, 2: 30, 3: 50, 4: 20, 5: 25}
        return sequences, cluster_tokens

    def test_budget_zero_covers_nothing_but_statics(self):
        sequences, cluster_tokens = self._inputs()
        pts = coverage_curve(sequences, cluster_tokens, [0], GEO_7B, static_prefix_tokens=1000, extra_static_tokens=500)
        assert pts[0].coverage_fraction == 0.0
        assert pts[0].storage_bytes == 1500 * GEO_7B.kv_bytes_per_token

    def test_monotone_and_saturating(self):
        sequences, cluster_tokens = self._inputs()
        saturation = coverage_saturation_budget(sequences)
        pts = coverage_curve(sequences, cluster_tokens, range(saturation + 2), GEO_7B, 1000)
        fractions = [p.coverage_fraction for p in pts]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        storage = [p.storage_bytes for p in pts]
        assert storage == sorted(storage)

    def test_storage_matches_store_accounting(self, bundle, plan, weaver, populated_store, desk_geometry):
        # The curve's storage arithmetic must agree with what an actual
        # store reports after precomputing the same prefixes.
        sequences = [plan.activation_sequence(s.gt_tools) for s in bundle.train]
        cluster_tokens = {c.id: len(c.example_tokens) for c in plan.clusters}
        static_len = len(weaver.static_planner_prefix())
        extra = (
            len(weaver.baseline_header_prefix())
            + len(weaver.arbiter_prefix("a"))
            + len(weaver.arbiter_prefix("b"))
        )
        budget = len(plan.cached_combinations)
        pts = coverage_curve(
            sequences,
            cluster_tokens,
            [budget],
            desk_geometry,
            static_prefix_tokens=static_len,
            extra_static_tokens=extra,
        )
        assert pts[0].storage_bytes == populated_store.total_bytes

    def test_exhaustive_coverage_recount(self):
        # Oracle: recompute the token-weighted fraction by scanning every
        # sequence against every selected prefix.
        from agentaccel.clusterplan import select_combinations

        sequences, cluster_tokens = self._inputs()
        budget = 3
        pts = coverage_curve(sequences, cluster_tokens, [budget], GEO_7B, 100)
        chosen = set(select_combinations(budget, sequences))
        covered = denom = 0
        for seq in sequences:
            denom += sum(cluster_tokens[c] for c in seq)
            best = ()
            for combo in chosen:
                if seq[: len(combo)] == combo and len(combo) > len(best):
                    best = combo
            covered += sum(cluster_tokens[c] for c in best)
        assert pts[0].coverage_fraction == pytest.approx(covered / denom)

    @settings(max_examples=200, deadline=None)
    @given(
        sequences=st.lists(st.lists(st.integers(1, 5), max_size=4).map(tuple), max_size=12),
        weights=st.lists(st.integers(0, 60), min_size=5, max_size=5),
    )
    def test_curve_equals_brute_recount_at_every_budget(self, sequences, weights):
        # Oracle: at each budget, walk every sequence against the selection
        # at that budget and sum storage per selected combination; exact.
        cluster_tokens = dict(zip(range(1, 6), weights))
        budgets = range(coverage_saturation_budget(sequences) + 2)
        pts = coverage_curve(sequences, cluster_tokens, budgets, GEO_7B, 100, extra_static_tokens=7)

        def weight(seq):
            return sum(cluster_tokens[c] for c in seq)

        denom = sum(weight(seq) for seq in sequences)
        for point, budget in zip(pts, budgets):
            chosen = select_combinations(budget, sequences)
            covered = 0
            for seq in sequences:
                best = max((combo for combo in chosen if seq[: len(combo)] == combo), key=len, default=())
                covered += weight(best)
            storage = kv_size(107, GEO_7B) + sum(kv_size(100 + weight(combo), GEO_7B) for combo in chosen)
            assert point.budget == budget
            assert point.coverage_fraction == (covered / denom if denom else 0.0)
            assert point.storage_bytes == storage

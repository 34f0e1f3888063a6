import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentaccel.clusterplan import sample_leaves, select_combinations
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
    load_seconds,
    prefill_latency,
    simulate_pipeline,
    specdec_speedup,
    ssd_load_latency,
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

    @pytest.mark.parametrize("points", [[(1, 1.0), (1, 1.2)], [(1, 1.0), (2, 1.86), (2, 1.5)], [(2, 1.5), (2, 1.5)]])
    def test_a_width_listed_twice_is_refused(self, points):
        # Sorted, a repeated width would leave tax(1) at 1.2 or tax(2) at 1.86.
        with pytest.raises(ValueError, match="twice"):
            TaxCurve(points)


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
                "weaver_static": rng.randint(0, weaver_total - uncache_w),
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
        bad = RoleTrace(100, 90, 100, 10, 0, 5, decode={})
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
                    "weaver_static": 0,
                    "output_tokens": 1,
                    "decode": {"rounds": 1, "fallbacks": 0, "draft_len": 4},
                },
                "w",
            )


@st.composite
def _roles(draw):
    """A well-formed role whose served prefix splits into a query-independent head and a rest."""
    weaver_total = draw(st.integers(0, 12_000))
    weaver_uncacheable = draw(st.integers(0, weaver_total))
    baseline_total = draw(st.integers(0, 12_000))
    rounds = draw(st.integers(0, 200))
    return RoleTrace(
        baseline_total=baseline_total,
        baseline_uncacheable=draw(st.integers(0, baseline_total)),
        weaver_total=weaver_total,
        weaver_uncacheable=weaver_uncacheable,
        weaver_static=draw(st.integers(0, weaver_total - weaver_uncacheable)),
        output_tokens=draw(st.integers(rounds, 4 * rounds)),
        decode={"rounds": rounds, "fallbacks": draw(st.integers(0, rounds)), "draft_len": 4},
    )


_RECORDS = st.lists(
    st.builds(TraceRecord, query_id=st.just("q"), tool_count=st.integers(0, 8), planner=_roles(), arbiter=_roles()),
    min_size=1,
    max_size=4,
)
_CONFIGS = st.builds(
    SimConfig,
    device=st.sampled_from(sorted(device_presets().values(), key=lambda d: d.name)),
    geometry=st.sampled_from(sorted(geometry_presets().values(), key=lambda g: g.name)),
    verify_tax=st.sampled_from([IDEAL_TAX, MEASURED_TAX]),
    tool_seconds=st.floats(0.0, 5.0),
    toolrag_seconds=st.floats(0.0, 5.0),
)


def _serial_ssd_load(records, config) -> float:
    """Every served prefix loaded after all other stages, summed in trace order."""
    total = 0.0
    for rec in records:
        for role in (rec.planner, rec.arbiter):
            total += ssd_load_latency(kv_size(role.weaver_total - role.weaver_uncacheable, config.geometry), config.device)
    return total


class TestOverlappedLoads:
    """The query-independent head of each load is priced as overlapped with ToolRAG or the tool calls."""

    @settings(max_examples=200, deadline=None)
    @given(records=_RECORDS, config=_CONFIGS)
    def test_each_load_lies_between_its_overlapped_and_serial_bounds(self, records, config):
        def load(tokens):
            return ssd_load_latency(kv_size(tokens, config.geometry), config.device)

        exposed_sum = hidden_sum = 0.0
        for rec in records:
            overlaps = ((rec.planner, config.toolrag_seconds), (rec.arbiter, rec.tool_count * config.tool_seconds))
            for role, overlapped in overlaps:
                exposed, hidden = load_seconds(role, overlapped, config)
                static, rest = load(role.weaver_static), load(role.loaded_tokens - role.weaver_static)
                serial = overlapped + static + rest
                tolerance = 1e-12 * serial
                assert max(overlapped, static) + rest - tolerance <= overlapped + exposed <= serial + tolerance
                assert 0.0 <= hidden <= min(static, overlapped)
                assert exposed + hidden == pytest.approx(static + rest, rel=1e-12, abs=1e-15)
                exposed_sum += exposed
                hidden_sum += hidden
        report = simulate_pipeline(records, config)
        for name in ("pw", "pw_es"):
            cell = report.cells[name]
            assert cell.seconds["ssd_load"] == pytest.approx(exposed_sum, rel=1e-12, abs=1e-15)
            assert cell.ssd_load_hidden == pytest.approx(hidden_sum, rel=1e-12, abs=1e-15)
            assert cell.seconds["ssd_load"] + cell.ssd_load_hidden == pytest.approx(_serial_ssd_load(records, config), rel=1e-9)
        for name in ("baseline", "es"):
            assert report.cells[name].seconds["ssd_load"] == report.cells[name].ssd_load_hidden == 0.0

    @settings(max_examples=200, deadline=None)
    @given(records=_RECORDS, config=_CONFIGS)
    def test_without_a_static_head_every_load_is_serial(self, records, config):
        serial = [
            dataclasses.replace(
                rec,
                planner=dataclasses.replace(rec.planner, weaver_static=0),
                arbiter=dataclasses.replace(rec.arbiter, weaver_static=0),
            )
            for rec in records
        ]
        report, overlapped = simulate_pipeline(serial, config), simulate_pipeline(records, config)
        for name, cell in report.cells.items():
            assert cell.ssd_load_hidden == 0.0
            expected = _serial_ssd_load(records, config) if name in ("pw", "pw_es") else 0.0
            assert cell.seconds["ssd_load"] == expected  # bit for bit
            others = {stage: seconds for stage, seconds in cell.seconds.items() if stage != "ssd_load"}
            assert others == {stage: seconds for stage, seconds in overlapped.cells[name].seconds.items() if stage != "ssd_load"}
        assert report.speedups["es"] == overlapped.speedups["es"]

    def test_a_static_head_longer_than_the_load_is_refused(self):
        doc = calibration_trace()[0].to_dict()["planner"]
        loaded = doc["weaver_total"] - doc["weaver_uncacheable"]
        assert RoleTrace.from_dict(dict(doc, weaver_static=loaded), "p").weaver_static == loaded
        with pytest.raises(TraceError, match="weaver_static exceeds the loaded tokens"):
            RoleTrace.from_dict(dict(doc, weaver_static=loaded + 1), "p")
        without = dict(doc)
        del without["weaver_static"]
        with pytest.raises(TraceError, match="missing field 'weaver_static'"):
            RoleTrace.from_dict(without, "p")

    def test_the_calibration_trace_keeps_its_loads_serial(self, calibration_report):
        record = calibration_trace()[0]
        assert record.planner.weaver_static == record.arbiter.weaver_static == 0
        for cell in calibration_report.cells.values():
            assert cell.ssd_load_hidden == 0.0


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


def _served(stream, keys) -> int:
    """Brute force: the most leading tokens of `stream` any key shares, scanned position by position."""
    best = 0
    for key in keys:
        length = 0
        while length < min(len(key), len(stream)) and key[length] == stream[length]:
            length += 1
        best = max(best, length)
    return best


class TestCoverageCurve:
    def _inputs(self):
        streams = {
            ("a",): (1,) * 4,
            ("a", "b"): (1,) * 4 + (2,) * 3,
            ("c",): (3,) * 5,
            ("a", "b", "d"): (1,) * 4 + (2,) * 3 + (4,) * 2,
            ("e",): (5,) * 2,
            ("c", "e"): (3,) * 5 + (5,) * 2,
        }
        counts = {("a",): 6, ("a", "b"): 5, ("c",): 3, ("a", "b", "d"): 2, ("e",): 2, ("c", "e"): 1}
        return [(tools, streams[tools]) for tools, n in counts.items() for _ in range(n)]

    def test_budget_zero_covers_nothing_but_statics(self):
        pts = coverage_curve(self._inputs(), [0], GEO_7B, static_prefix_tokens=1000, extra_static_tokens=500)
        assert pts[0].coverage_fraction == 0.0
        assert pts[0].storage_bytes == 1500 * GEO_7B.kv_bytes_per_token

    def test_monotone_and_saturating(self):
        leaves = self._inputs()
        saturation = coverage_saturation_budget(leaves)
        pts = coverage_curve(leaves, range(saturation + 2), GEO_7B, 1000)
        fractions = [p.coverage_fraction for p in pts]
        assert fractions == sorted(fractions)
        assert fractions[saturation - 1] < fractions[saturation] == fractions[-1] == 1.0
        storage = [p.storage_bytes for p in pts]
        assert storage == sorted(storage)

    def test_storage_matches_store_accounting(self, bundle, plan, weaver, populated_store, desk_geometry):
        # The curve's storage arithmetic must agree with what an actual
        # store reports after precomputing the same prefixes.
        static_len = len(weaver.static_planner_prefix())
        extra = len(weaver.arbiter_prefix())
        pts = coverage_curve(
            sample_leaves(plan, bundle.train, bundle.top_train_examples()),
            [len(plan.cached_leaves)],
            desk_geometry,
            static_prefix_tokens=static_len,
            extra_static_tokens=extra,
        )
        assert pts[0].storage_bytes == populated_store.total_bytes

    def test_exhaustive_coverage_recount(self):
        # Oracle: recompute the token fraction by scanning every stream
        # against every selected key.
        leaves = self._inputs()
        budget = 3
        pts = coverage_curve(leaves, [budget], GEO_7B, 100)
        streams = dict(leaves)
        keys = [streams[tools] for tools in select_combinations(budget, leaves)]
        covered = sum(_served(stream, keys) for _, stream in leaves)
        denom = sum(len(stream) for _, stream in leaves)
        assert pts[0].coverage_fraction == pytest.approx(covered / denom)

    @settings(max_examples=200, deadline=None)
    @given(
        streams=st.lists(st.lists(st.integers(1, 3), max_size=6).map(tuple), min_size=1, max_size=5),
        picks=st.lists(st.integers(0, 4), max_size=12),
    )
    def test_curve_equals_brute_recount_at_every_budget(self, streams, picks):
        # Oracle: at each budget, walk every stream against the selection at
        # that budget and sum storage per selected tool set; exact.
        leaves = [((f"t{i % len(streams)}",), streams[i % len(streams)]) for i in picks]
        budgets = range(coverage_saturation_budget(leaves) + 2)
        pts = coverage_curve(leaves, budgets, GEO_7B, 100, extra_static_tokens=7)

        denom = sum(len(stream) for _, stream in leaves)
        for point, budget in zip(pts, budgets):
            keys = [dict(leaves)[tools] for tools in select_combinations(budget, leaves)]
            covered = sum(_served(stream, keys) for _, stream in leaves)
            storage = kv_size(107, GEO_7B) + sum(kv_size(100 + len(key), GEO_7B) for key in keys)
            assert point.budget == budget
            assert point.coverage_fraction == (covered / denom if denom else 0.0)
            assert point.storage_bytes == storage

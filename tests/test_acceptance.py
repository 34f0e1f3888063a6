"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines alongside the pytest report.
"""

import random
import statistics
import time
import types

import numpy as np
import pytest

from agentaccel import exspec, simulator
from agentaccel.clusterplan import Cluster, ClusterPlan, coverage, nmf_factorize, sample_leaves, select_combinations
from agentaccel.kvstore import TAG_STATIC, IntegrityError, KVStore, ModelGeometry, prefix_blob
from agentaccel.lm import ScriptedModel, greedy_decode, train_markov
from agentaccel.simulator import (
    IDEAL_TAX,
    MEASURED_TAX,
    SimConfig,
    calibration_trace,
    coverage_curve,
    coverage_saturation_budget,
)

TINY = ModelGeometry(name="tiny", layers=1, kv_heads=1, head_dim=2, bytes_per_element=2, params_bytes=64)


def _verdict(number, description):
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def test_criterion_01_speculative_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    scripted_pool = []
    for _ in range(10):
        prompt = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 8)))
        script = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 25)))
        scripted_pool.append((ScriptedModel(prompt, script), list(prompt)))
    markov_pool = []
    for order in (1, 2, 3):
        data = [[rng.randint(1, 9) for _ in range(rng.randint(5, 40))] for _ in range(10)]
        markov_pool.append((train_markov(data, order=order, smoothing=rng.choice([0.0, 0.2])), data[0][:4]))
    # Scripts in the plan format, for the plan grammar below: step numbers
    # 1-3 are ids 1-3, `.` 4, `;` 5, `end` 6, and ids 7 and 8 are tools.
    plan_rng = random.Random(2026)
    for _ in range(6):
        steps = [
            [k, 4, plan_rng.choice([7, 8]), *plan_rng.choices(range(1, 10), k=plan_rng.randint(0, 4)), 5]
            for k in (1, 2, 3)
        ]
        script = [tok for step in steps[: plan_rng.randint(1, 3)] for tok in step] + [6, 9]
        prompt = tuple(plan_rng.randint(1, 9) for _ in range(plan_rng.randint(1, 8)))
        scripted_pool.append((ScriptedModel(prompt, script), list(prompt)))
    pool = scripted_pool + markov_pool
    plan_grammar = exspec.PlanGrammar(4, 5, 6, {1: 1, 2: 2, 3: 3}, {1: 1, 2: 2, 3: 3})

    # Every other pair of cases decodes as the planner does: from an
    # arbitrary backup table, drawn from its own stream, as the planner's is
    # counted over the train split, and with the plan grammar, awaiting one
    # or both tools.
    table_rng = random.Random(2025)
    cases = backed = proposed = 0
    for i in range(520):
        model, prompt = pool[i % len(pool)]
        n = rng.choice([2, 3, 4])
        n_draft = rng.randint(1, 6)
        selective = bool(i % 2)
        max_tokens = rng.randint(0, 48)
        region = [rng.randint(1, 9) for _ in range(rng.randint(0, 80))]
        lut = exspec.build_lut(region, n=n)
        backup = grammar = None
        if i % 4 >= 2:
            table = [table_rng.randint(0, 9) for _ in range(table_rng.randint(0, 120))]
            backup = exspec.build_lut(table, n=table_rng.choice([2, 3, 4]))
            grammar = plan_grammar.awaiting(table_rng.choice([[7], [8], [7, 8]]))
            backed += 1
        out, stats = exspec.decode(model, prompt, lut, n_draft, selective, max_tokens, backup, grammar)
        assert out == greedy_decode(model, prompt, max_tokens), (
            f"divergence at case {i}: n={n} n_draft={n_draft} selective={selective} planner={backup is not None}"
        )
        proposed += stats.grammar_drafts
        cases += 1
    elapsed = time.monotonic() - start
    assert cases >= 500
    assert proposed > 0
    assert elapsed < 30.0
    _verdict(
        1,
        f"{cases} randomized decode cases ({backed} with a backup table and the plan grammar, "
        f"which drafted {proposed} tokens) token-identical to greedy ({elapsed:.1f}s)",
    )


def _random_plan_and_samples(rng):
    """A plan over up to 7 tools, its examples drawn from a 3-token alphabet, up to 12 train samples of up to 4 tool sets, and their top examples.

    Some tools lack a single-tool example, and a cluster's tools share its
    example, so distinct tool sets often share a cluster run or a whole leaf.
    A sample's top example is one of up to 3, possibly empty, or none, so
    the samples of one tool set often rank different examples first.
    """
    tools = [f"t{i}" for i in range(rng.randint(2, 7))]
    assignment = {t: rng.randrange(rng.randint(1, len(tools))) for t in tools}
    clusters = tuple(
        Cluster(cid, members, "x", f"c{cid}", tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
        for cid in sorted(set(assignment.values()))
        for members in [tuple(t for t in tools if assignment[t] == cid)]
    )
    singles = {t: (f"s{t}", tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))) for t in tools if rng.random() < 0.7}
    tool_sets = [frozenset(rng.sample(tools, rng.randint(1, min(3, len(tools))))) for _ in range(rng.randint(1, 4))]
    samples = [types.SimpleNamespace(gt_tools=rng.choice(tool_sets)) for _ in range(rng.randint(1, 12))]
    examples = [
        types.SimpleNamespace(id=f"e{i}", example_tokens=tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))))
        for i in range(rng.randint(1, 3))
    ]
    top_examples = [rng.choice(examples + [None]) for _ in samples]
    return ClusterPlan(clusters=clusters, single_examples=singles), samples, top_examples


def test_criterion_02_greedy_selection_oracle():
    start = time.monotonic()
    rng = random.Random(7)
    instances = rounds = shared_runs = without_single = shared_leaves = 0
    for _ in range(200):
        plan, samples, top_examples = _random_plan_and_samples(rng)
        leaves = sample_leaves(plan, samples, top_examples)
        streams, queries = dict(leaves), [stream for _, stream in leaves]
        runs = [plan.activation_sequence(tools) for tools, _ in streams]
        shared_runs += len(set(runs)) < len(runs)
        without_single += any(t not in plan.single_examples for tools, _ in streams for t in tools)
        budget = rng.randint(0, 4)
        chosen = select_combinations(budget, leaves)
        current = []
        for pick in chosen + [None]:
            base = coverage(queries, [streams[t] for t in current])
            gains = {t: coverage(queries, [streams[t] for t in current + [t]]) - base for t in streams if t not in current}
            if pick is None:  # the selection stopped: at its budget, or where no tool set adds a token
                assert len(chosen) == budget or max(gains.values(), default=0) == 0
                break
            best = max(gains.values())
            assert gains[pick] == best > 0
            assert pick == min((t for t, gain in gains.items() if gain == best), key=lambda t: (len(streams[t]), t))
            current.append(pick)
            rounds += 1
        shared_leaves += len({tools for tools, _ in chosen}) < len(chosen)
        instances += 1
    elapsed = time.monotonic() - start
    assert shared_runs and without_single and shared_leaves
    assert elapsed < 10.0
    _verdict(
        2,
        f"{instances} instances, {rounds} greedy rounds over (tool set, example) streams recounted exhaustively, "
        f"gains maximal and ties broken as documented ({shared_runs} with tool sets sharing a cluster run, "
        f"{without_single} with a tool lacking a single-tool example, {shared_leaves} with two picks sharing a leaf; {elapsed:.1f}s)",
    )


def test_criterion_03_prefix_match_oracle(tmp_path):
    start = time.monotonic()
    rng = random.Random(13)
    store = KVStore(tmp_path / "cache")
    keys = []
    while len(keys) < 200:
        base = [rng.randint(1, 12) for _ in range(rng.randint(1, 300))]
        keys.append(base)
        if rng.random() < 0.3 and len(keys) < 200:
            keys.append(base[: rng.randint(1, len(base))])
    store.precompute({TAG_STATIC: keys[:200]}, TINY)
    entries = list(store.entries.values())

    def oracle(prompt):
        best = 0
        for entry in entries:
            common = 0
            for a, b in zip(entry.key, prompt):
                if a != b:
                    break
                common += 1
            best = max(best, common)
        return best

    checked = 0
    for i in range(1000):
        if rng.random() < 0.7:
            src = rng.choice(entries).key
            prompt = list(src[: rng.randint(0, len(src))])
            prompt += [rng.randint(1, 12) for _ in range(rng.randint(0, 4700))]
        else:
            prompt = [rng.randint(1, 12) for _ in range(rng.randint(0, 5000))]
        prompt = prompt[:5000]
        _, match = store.longest_cached_prefix(prompt)
        assert match == oracle(prompt), f"mismatch on pair {i}"
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 1000
    assert elapsed < 20.0
    _verdict(3, f"{checked} randomized store/prompt pairs match the brute-force scan ({elapsed:.1f}s)")


def test_criterion_04_coverage_curve(bundle, plan):
    leaves = sample_leaves(plan, bundle.train, bundle.top_train_examples())
    geometry = simulator.geometry_presets()["7b-class"]
    saturation = coverage_saturation_budget(leaves)
    knee = 5  # the shipped fixture's knee
    points = coverage_curve(leaves, range(saturation + 1), geometry, static_prefix_tokens=2641)
    fractions = [p.coverage_fraction for p in points]
    assert fractions[0] == 0.0
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
    assert knee < saturation
    assert fractions[knee] >= 0.7
    _verdict(
        4,
        f"coverage 0 at budget 0, monotone, saturates at budget {saturation}, "
        f"{fractions[knee]:.1%} at knee budget {knee}",
    )


def test_criterion_05_token_accounting(bundle, weaver, oracle_rag, populated_store):
    base, woven = [], []
    for sample in bundle.test:
        retrieved = oracle_rag.retrieve_tools(sample.query_tokens, 0.5)
        examples = oracle_rag.retrieve_examples(sample.query_tokens, retrieved, 3)
        wp = weaver.planner_prompt(sample.query_tokens, retrieved, examples[:1], store=populated_store)
        bp = weaver.baseline_prompt(sample.query_tokens, retrieved, examples)
        # Independent recount of both sides from raw segment lengths.
        assert wp.uncacheable_tokens == sum(len(t) for _, t in wp.segments) - wp.match_len
        assert bp.uncacheable_tokens == sum(len(t) for _, t in bp.segments) - bp.match_len
        base.append(bp.uncacheable_tokens)
        woven.append(wp.uncacheable_tokens)
    reduction = 1 - statistics.mean(woven) / statistics.mean(base)
    assert reduction >= 0.60
    _verdict(5, f"uncacheable tokens reduced {reduction:.1%} at k=1 versus the baseline order")


def test_criterion_06_selective_vs_non_selective():
    # Extraction region disjoint from everything the target will emit.
    script = tuple(range(100, 140))
    model = ScriptedModel((1, 2), script)
    region = [rng_tok for rng_tok in range(500, 560)]
    lut = exspec.build_lut(region, n=3)
    out_sel, sel = exspec.decode(model, [1, 2], lut, 4, selective=True, max_tokens=200)
    out_non, non = exspec.decode(model, [1, 2], lut, 4, selective=False, max_tokens=200)
    assert out_sel == out_non == list(script)
    assert sel.drafts_accepted == non.drafts_accepted
    assert sel.drafts_generated < non.drafts_generated
    sel_cost, non_cost = (simulator.decode_seconds(s.to_dict(), 1.0, MEASURED_TAX) for s in (sel, non))
    assert sel_cost < non_cost
    _verdict(
        6,
        f"equal accepted ({sel.drafts_accepted}), selective drafts {sel.drafts_generated} < "
        f"{non.drafts_generated}, latency {sel_cost:.0f} < {non_cost:.0f}",
    )


def test_criterion_07_cost_model_calibration():
    config = SimConfig(
        device=simulator.device_presets()["m4-pro"],
        geometry=simulator.geometry_presets()["7b-class"],
        verify_tax=IDEAL_TAX,
    )
    report = simulator.simulate_pipeline(calibration_trace(), config)
    fr = report.cells["baseline"].fractions
    prefill = fr["planner_prefill"] + fr["arbiter_prefill"]
    decode = fr["planner_decode"] + fr["arbiter_decode"]
    assert abs(prefill - 0.217) <= 0.05
    assert abs(decode - 0.687) <= 0.05

    rows = {"3b": (3.0, 0.42), "1b": (1.0, 0.33), "160m": (0.16, 0.02), "68m": (0.068, 0.02)}
    no_tax = {k: simulator.specdec_speedup(7.0, s, a, 1, IDEAL_TAX) for k, (s, a) in rows.items()}
    with_tax = {k: simulator.specdec_speedup(7.0, s, a, 1, MEASURED_TAX) for k, (s, a) in rows.items()}
    assert max(no_tax, key=no_tax.get) == "1b"
    assert max(with_tax, key=with_tax.get) == "1b"
    for k in rows:
        assert with_tax[k] <= no_tax[k]
    _verdict(
        7,
        f"baseline fractions prefill {prefill:.1%} / decode {decode:.1%}; "
        f"1b draft ranks first in both speedup columns",
    )


def test_criterion_08_end_to_end_direction():
    start = time.monotonic()
    config = SimConfig(
        device=simulator.device_presets()["m4-pro"],
        geometry=simulator.geometry_presets()["7b-class"],
        verify_tax=IDEAL_TAX,
    )
    report = simulator.simulate_pipeline(calibration_trace(), config)
    s = report.speedups
    assert s["pw_es"] >= max(s["pw"], s["es"])
    assert 1.3 <= s["pw_es"] <= 1.9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _verdict(8, f"pw {s['pw']:.2f}x, es {s['es']:.2f}x, combined {s['pw_es']:.2f}x within [1.3, 1.9]")


def test_criterion_09_nmf_properties():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for trial in range(20):
        size = int(rng.integers(4, 12))
        m = rng.random((size, size)) * 5
        m = m + m.T
        res = nmf_factorize(m, rank=int(rng.integers(1, size + 1)), seed=trial, iters=100)
        for prev, cur in zip(res.err_history, res.err_history[1:]):
            assert cur <= prev * (1 + 1e-9) + 1e-12

    for blocks in ([3, 3], [2, 3, 4]):
        size = sum(blocks)
        m = np.zeros((size, size))
        pos = 0
        for b in blocks:
            m[pos: pos + b, pos: pos + b] = 10.0
            pos += b
        res = nmf_factorize(m, rank=len(blocks), seed=1)
        assign = np.argmax(res.w, axis=1)
        got = sorted(sorted(np.where(assign == k)[0].tolist()) for k in set(assign))
        expected = []
        pos = 0
        for b in blocks:
            expected.append(list(range(pos, pos + b)))
            pos += b
        assert got == sorted(expected)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _verdict(9, f"error monotone on 20 random matrices; 2- and 3-block recovery exact ({elapsed:.1f}s)")


def test_criterion_10_persistence_round_trip(tmp_path):
    start = time.monotonic()
    rng = random.Random(99)
    store = KVStore(tmp_path / "cache")
    prefixes = [[rng.randint(1, 50) for _ in range(rng.randint(1, 60))] for _ in range(40)]
    entries = store.precompute({TAG_STATIC: prefixes}, TINY)
    for entry in entries:
        assert store.load_blob(entry) == prefix_blob(entry.key, TINY)

    pairs = 0
    for _ in range(110):
        base = [rng.randint(1, 50) for _ in range(rng.randint(1, 80))]
        cut = rng.randint(0, len(base))
        short = prefix_blob(base[:cut], TINY)
        long = prefix_blob(base, TINY)
        assert long[: len(short)] == short
        pairs += 1

    victim = entries[0]
    path = store.blob_dir / victim.blob_name
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x5A
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        store.load_blob(victim)
    elapsed = time.monotonic() - start
    assert pairs >= 100
    assert elapsed < 10.0
    _verdict(10, f"round-trips byte-identical, {pairs} prefix/extension pairs verified, corruption detected ({elapsed:.1f}s)")

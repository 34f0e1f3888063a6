#!/usr/bin/env python3
# Analytical cost model: stage breakdowns and end-to-end speedups from the
# calibration workload, the draft-model trade-off table, and a look at how
# the same workload behaves across device classes.

from agentaccel.simulator import (
    IDEAL_TAX,
    MEASURED_TAX,
    SimConfig,
    calibration_trace,
    device_presets,
    geometry_presets,
    simulate_pipeline,
    specdec_speedup,
)

devices = device_presets()
geometry = geometry_presets()["7b-class"]
trace = calibration_trace()

config = SimConfig(device=devices["m4-pro"], geometry=geometry, verify_tax=IDEAL_TAX)
report = simulate_pipeline(trace, config)

print("baseline stage breakdown on the m4-pro preset:")
baseline = report.cells["baseline"]
for stage, frac in baseline.fractions.items():
    if frac > 0:
        print(f"  {stage:16s} {baseline.seconds[stage]:7.2f} s  {frac:6.1%}")
print(f"  {'total':16s} {baseline.total:7.2f} s")

print("\nend-to-end speedups over the baseline:")
for cell in ("pw", "es", "pw_es"):
    print(f"  {cell:6s} {report.speedups[cell]:.2f}x  (total {report.cells[cell].total:.2f} s)")

print("\nwhy LLM draft models disappoint on single-batch runtimes")
print("(projected decode speedup per draft model, one draft per round):")
rows = [
    ("3b-instruct", 3.0, 0.42),
    ("1b-instruct", 1.0, 0.33),
    ("160m", 0.16, 0.02),
    ("68m", 0.068, 0.02),
]
print(f"  {'draft':12s} {'accuracy':>8s} {'ideal':>7s} {'taxed':>7s}")
for name, size, alpha in rows:
    ideal = specdec_speedup(7.0, size, alpha, 1, IDEAL_TAX)
    taxed = specdec_speedup(7.0, size, alpha, 1, MEASURED_TAX)
    print(f"  {name:12s} {alpha:8.2f} {ideal:6.2f}x {taxed:6.2f}x")
print("  (a zero-cost lookup-table draft sidesteps the whole trade-off)")

print("\nthe same workload across device classes (baseline totals):")
for name in ("m4-pro", "m4-max", "snapdragon-x-elite", "ryzen-ai-max-395", "h100"):
    cfg = SimConfig(device=devices[name], geometry=geometry, verify_tax=IDEAL_TAX)
    rep = simulate_pipeline(trace, cfg)
    fr = rep.cells["baseline"].fractions
    prefill = fr["planner_prefill"] + fr["arbiter_prefill"]
    decode = fr["planner_decode"] + fr["arbiter_decode"]
    print(
        f"  {name:20s} total {rep.cells['baseline'].total:7.2f} s  "
        f"prefill {prefill:5.1%}  decode {decode:5.1%}  combined speedup {rep.speedups['pw_es']:.2f}x"
    )

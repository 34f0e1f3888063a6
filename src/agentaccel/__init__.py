"""agentaccel: acceleration toolkit for on-device tool-calling agents.

Three capabilities behind one library:

* cache-planning and prompt reconstruction that turns agent prompts into
  mostly-precomputable prefixes (clusterplan, kvstore, weaver),
* draft-model-free speculative decoding from an on-the-fly n-gram lookup
  table with selective fallback, plus a grammar of the plan format for the
  planner (lm, exspec), which counts rounds,
* an analytical latency simulator that replays traces of the above under
  device cost models and is the one place decoding is priced (simulator).
"""

from .clusterplan import ClusterPlan, build_plan, nmf_factorize, select_combinations
from .corpus import (
    CoactivationMatrix,
    PlanDAG,
    QuerySample,
    Tool,
    ToolRegistry,
    ToolUseExample,
    build_coactivation,
    load_dataset,
    load_example_db,
    load_registry,
)
from .exspec import DecodeStats, NGramLUT, PlanGrammar, build_lut, decode, verify
from .kvstore import CacheEntry, KVStore, ModelGeometry, kv_size
from .lm import MarkovModel, ScriptedModel, greedy_decode, train_markov
from .simulator import (
    DeviceSpec,
    SimConfig,
    TaxCurve,
    TraceRecord,
    coverage_curve,
    decode_seconds,
    device_presets,
    geometry_presets,
    prefill_latency,
    simulate_pipeline,
    specdec_speedup,
)
from .tokenizer import EOS_ID, Tokenizer
from .toolrag import CosineToolScorer, OracleToolScorer, TfidfEmbedder, ToolRag
from .weaver import ReconstructedPrompt, Weaver

__version__ = "0.1.0"

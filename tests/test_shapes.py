"""The declared document shapes: the checker's messages, and a fuzz test of every loader.

The fuzz test derives its mutations from each loader's declared shape: every
required field deleted, and every declared part replaced by a value the
part's shape refuses.  Each mutated document must raise the loader's own
error class, and through `cli.main` end in exit 1 and one `error:` line.
"""

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentaccel import cli, clusterplan, corpus, exspec, kvstore, shapes, simulator, tokenizer
from agentaccel.cli import main
from agentaccel.clusterplan import ClusterPlan, PlanError
from agentaccel.corpus import LoadError
from agentaccel.kvstore import KVStore, ModelGeometry, StoreError
from agentaccel.tokenizer import Tokenizer


class Refused(ValueError):
    pass


def _message(doc, shape) -> str:
    with pytest.raises(Refused) as err:
        shapes.check(doc, shape, "doc.json", Refused)
    return str(err.value)


class TestCheck:
    def test_a_fitting_document_passes(self):
        shape = shapes.Object({"a": shapes.INT, "b": shapes.ListOf(shapes.Object({"c": shapes.STRINGS}))}, {"d": shapes.NUMBER})
        shapes.check({"a": 1, "b": [{"c": ["x"]}, {"c": []}], "d": 2.5, "e": None}, shape, "doc.json", Refused)

    @pytest.mark.parametrize(
        "doc, shape, message",
        [
            pytest.param([], shapes.Object({"a": shapes.INT}), "doc.json is not a JSON object holding 'a' (wrong type: [])", id="root"),
            pytest.param({}, shapes.Object({"a": shapes.INT}), "doc.json is missing field 'a'", id="missing"),
            pytest.param({"a": True}, shapes.Object({"a": shapes.INT}), "doc.json field 'a' is not an integer (wrong type: true)", id="bool_for_an_int"),
            pytest.param({"a": 1.0}, shapes.Object({"a": shapes.INT}), "doc.json field 'a' is not an integer (wrong type: 1.0)", id="float_for_an_int"),
            pytest.param({"a": False}, shapes.Object({"a": shapes.NUMBER}), "doc.json field 'a' is not a number (wrong type: false)", id="bool_for_a_number"),
            pytest.param(
                {"a": [{"b": 1}, {}]},
                shapes.Object({"a": shapes.ListOf(shapes.Object({"b": shapes.INT}))}),
                "doc.json: a[1] is missing field 'b'",
                id="missing_in_an_item",
            ),
            pytest.param(
                {"a": [{"b": [1, 2, "3"]}]},
                shapes.Object({"a": shapes.ListOf(shapes.Object({"b": shapes.TOKEN_IDS}))}),
                "doc.json: a[0].b is not a list of token ids (wrong type of item 2: \"3\")",
                id="token_id_a_string",
            ),
            pytest.param({"a": -1}, shapes.Object({"a": shapes.COUNT}), "doc.json field 'a' is not a non-negative integer (wrong value: -1)", id="range"),
            pytest.param({"a": "-1"}, shapes.Object({"a": shapes.COUNT}), "doc.json field 'a' is not a non-negative integer (wrong type: \"-1\")", id="range_type"),
            pytest.param({"a": 5}, shapes.Object(optional={"a": shapes.STR}), "doc.json field 'a' is not a string (wrong type: 5)", id="optional"),
        ],
    )
    def test_the_first_misfit_is_named_in_one_line(self, doc, shape, message):
        assert _message(doc, shape) == message

    def test_a_long_value_is_cut_short(self):
        message = _message({"a": "x" * 100}, shapes.Object({"a": shapes.INT}))
        assert message.endswith('(wrong type: "' + "x" * 36 + '...)')

    def test_json_that_does_not_parse_names_the_file(self, tmp_path):
        (tmp_path / "doc.json").write_text('{"a": ')
        with pytest.raises(Refused, match=r"^doc \S*doc.json is not valid JSON: "):
            shapes.load_json(tmp_path / "doc.json", shapes.OBJECT, f"doc {tmp_path / 'doc.json'}", Refused)
        with pytest.raises(Refused, match=r"^doc \S*missing.json is unreadable: "):
            shapes.load_json(tmp_path / "missing.json", shapes.OBJECT, f"doc {tmp_path / 'missing.json'}", Refused)


# --- fuzz test of every loader ------------------------------------------------

_DELETE = object()
# Values of every JSON type; a mutation draws one its part's shape refuses.
_POOL = (None, True, False, 0, 7, -3, 1.5, "x", "", [], [1], ["x"], [[1]], {}, {"a": 1}, {"x": "y"})


def _mutations(shape, value, path=()):
    """`(path, shape)` of every declared part of `value` to replace, and `(path, _DELETE)` of every required field."""
    yield path, shape
    while isinstance(shape, shapes.Check):
        shape = shape.base
    if isinstance(shape, shapes.Object):
        for name, field in {**shape.required, **shape.optional}.items():
            if name in value:
                yield from _mutations(field, value[name], (*path, name))
            if name in shape.required:
                yield (*path, name), _DELETE
    elif isinstance(shape, shapes.ListOf) and value:
        yield from _mutations(shape.item, value[0], (*path, 0))


def _mutated(doc, path, replacement):
    """A copy of `doc` with the part at `path` replaced, or deleted."""
    if not path:
        return replacement
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


@dataclass
class Loader:
    name: str
    file: str  # under the scratch directory
    doc: object  # a valid document
    shape: shapes.Shape
    load: Callable  # (path) -> anything; raises `error` on a malformed document
    error: type
    argv: Callable  # (path) -> the CLI command that reads the document at `path`
    root: tuple = ()  # where in `doc` the shape applies


def _cli(argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([str(a) for a in argv])
    return rc, [line for line in err.getvalue().splitlines() if line.strip()]


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    """A fixture corpus with a plan, a cache, a trace and a report; `scratch` takes the mutated files."""
    fx = tmp_path_factory.mktemp("shapes")
    steps = [
        ("fixtures", "--out", fx),
        ("build-plan", "--dataset", fx / "train.jsonl", "--registry", fx / "registry.json",
         "--examples", fx / "examples.jsonl", "--vocab", fx / "vocab.json", "--out", fx / "plan.json"),
        ("precompute-cache", "--plan", fx / "plan.json", "--registry", fx / "registry.json",
         "--vocab", fx / "vocab.json", "--out", fx / "cache"),
        ("run", "--config", fx / "run.json"),
        ("simulate", "--trace", fx / "trace.jsonl", "--out", fx / "report.json"),
    ]
    for argv in steps:
        assert _cli(argv) == (0, [])
    (fx / "scratch").mkdir()
    shutil.copytree(fx / "cache", fx / "scratch" / "cache")
    return fx


@pytest.fixture(scope="module")
def loaders(fx) -> dict[str, "Loader"]:
    def doc(name):
        return json.loads((fx / name).read_text())

    def first(name):
        return json.loads((fx / name).read_text().splitlines()[0])

    def build_plan(**inputs):
        paths = {"dataset": fx / "train.jsonl", "registry": fx / "registry.json", "examples": fx / "examples.jsonl", **inputs}
        argv = [f"--{key}={value}" for key, value in paths.items()]
        return ["build-plan", *argv, "--vocab", fx / "vocab.json", "--out", fx / "scratch" / "out.json"]

    def run(**paths):
        config = doc("run.json")
        config["paths"] = {key: str(fx / rel) for key, rel in config["paths"].items()}
        config["paths"].update(trace=str(fx / "scratch" / "t.jsonl"), **{key: str(value) for key, value in paths.items()})
        (fx / "scratch" / "run.json").write_text(json.dumps(config))
        return ["run", "--config", fx / "scratch" / "run.json"]

    def simulate(*flags):
        return ["simulate", "--trace", fx / "trace.jsonl", *flags, "--out", fx / "scratch" / "report.json"]

    tok = Tokenizer.load(fx / "vocab.json")
    registry = corpus.load_registry(fx / "registry.json", tok)
    trace = json.loads((fx / "trace.jsonl").read_text().splitlines()[1])
    loaders = [
        Loader("registry", "registry.json", doc("registry.json"), corpus._REGISTRY,
               lambda p: corpus.load_registry(p, Tokenizer()), LoadError, lambda p: build_plan(registry=p)),
        Loader("registry tool", "registry.json", doc("registry.json"), corpus._TOOL,
               lambda p: corpus.load_registry(p, Tokenizer()), LoadError, lambda p: build_plan(registry=p), root=("tools", 0)),
        Loader("dataset record", "train.jsonl", first("train.jsonl"), corpus._SAMPLE,
               lambda p: corpus.load_dataset(p, registry, tok), LoadError, lambda p: build_plan(dataset=p)),
        Loader("dataset plan", "train.jsonl", first("train.jsonl"), corpus._PLAN,
               lambda p: corpus.load_dataset(p, registry, tok), LoadError, lambda p: build_plan(dataset=p), root=("plan",)),
        Loader("example record", "examples.jsonl", first("examples.jsonl"), corpus._EXAMPLE,
               corpus.load_example_texts, LoadError, lambda p: build_plan(examples=p)),
        Loader("vocabulary", "vocab.json", doc("vocab.json"), tokenizer._VOCABULARY,
               Tokenizer.load, ValueError, lambda p: run(vocab=p)),
        Loader("plan", "plan.json", doc("plan.json"), clusterplan._PLAN, ClusterPlan.load, PlanError, lambda p: run(plan=p)),
        Loader("draft table", "plan.json", doc("plan.json"), exspec._TABLE, ClusterPlan.load, PlanError,
               lambda p: run(plan=p), root=("draft_table",)),
        Loader("manifest", "cache/manifest.json", doc("cache/manifest.json"), kvstore._MANIFEST,
               lambda p: KVStore(p.parent), StoreError, lambda p: run(cachedir=p.parent)),
        Loader("manifest geometry", "cache/manifest.json", doc("cache/manifest.json"), kvstore._GEOMETRY,
               lambda p: KVStore(p.parent), StoreError, lambda p: run(cachedir=p.parent), root=("geometry",)),
        Loader("cache provenance", "cache/provenance.json", doc("cache/provenance.json"), cli._CACHE_PROVENANCE,
               lambda p: cli._open_store(p.parent, fx / "plan.json", fx / "vocab.json"), cli.CliError, lambda p: run(cachedir=p.parent)),
        Loader("trace record", "trace.jsonl", trace, simulator._RECORD, simulator.load_trace, simulator.TraceError,
               lambda p: ["simulate", "--trace", p, "--out", fx / "scratch" / "report.json"]),
        Loader("trace role", "trace.jsonl", trace, simulator._ROLE, simulator.load_trace, simulator.TraceError,
               lambda p: ["simulate", "--trace", p, "--out", fx / "scratch" / "report.json"], root=("arbiter",)),
        Loader("geometry", "geometry.json", ModelGeometry("g", 2, 1, 2, 2, 64).to_dict(), kvstore._GEOMETRY,
               lambda p: ModelGeometry.from_dict(json.loads(p.read_text())), ValueError, lambda p: simulate("--geometry", p)),
        Loader("device", "device.json", {"compute_tops": 1, "mem_bw": 1e9, "ssd_bw": 1e9, "name": "d"}, simulator._DEVICE,
               lambda p: simulator.DeviceSpec.from_dict(json.loads(p.read_text()), "d"), ValueError, lambda p: simulate("--device", p)),
        Loader("tax curve", "tax.json", [[1, 1.0], [2, 1.86]], simulator._TAX_POINTS,
               lambda p: simulator.TaxCurve.from_list(json.loads(p.read_text())), ValueError, lambda p: simulate("--tax", p)),
        Loader("run config", "run.json", doc("run.json"), cli._RUN_CONFIG, cli._load_config, cli.CliError,
               lambda p: ["run", "--config", p]),
        Loader("report", "report.json", doc("report.json"), cli._REPORT, lambda p: cli.cmd_report(_ReportArgs(p)), cli.CliError,
               lambda p: ["report", "--report", p]),
    ]
    return {loader.name: loader for loader in loaders}


@dataclass
class _ReportArgs:
    report: Path
    format: str = "json"
    out: None = None


def _part(doc, path):
    for step in path:
        doc = doc[step]
    return doc


_LOADER_NAMES = [
    "registry", "registry tool", "dataset record", "dataset plan", "example record", "vocabulary", "plan", "draft table",
    "manifest", "manifest geometry", "cache provenance", "trace record", "trace role", "geometry", "device", "tax curve", "run config",
    "report",
]


@pytest.mark.parametrize("name", _LOADER_NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_mutation_of_a_declared_shape_is_refused_in_one_line(fx, loaders, name, data):
    loader = loaders[name]
    mutations = list(_mutations(loader.shape, _part(loader.doc, loader.root), loader.root))
    path, target = data.draw(st.sampled_from(mutations), label="mutation")
    if target is _DELETE:
        replacement = _DELETE
    else:
        replacement = data.draw(st.sampled_from([v for v in _POOL if target.misfit(v) is not None]), label="value")
    file = fx / "scratch" / loader.file
    original = file.read_bytes() if file.exists() else None
    file.write_text(json.dumps(_mutated(loader.doc, path, replacement)) + "\n")
    try:
        with pytest.raises(loader.error):
            loader.load(file)
        rc, err = _cli(loader.argv(file))
    finally:
        if original is None:
            file.unlink()
        else:
            file.write_bytes(original)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: "), err

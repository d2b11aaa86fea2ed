"""The CLI's exit-code contract as a property.

Each case starts from a shipped cluster config, from the generator spec
inside it, or from the ``hierarchy.json`` that config's run writes, and
swaps one value for another JSON type, or drops it.  Whatever the swap,
``pretopo`` exits 0, 2 or 3, reports an error as one JSON object and never
as a traceback, and writes nothing unless it exits 0.

The library's JSON-object readers keep the same contract on their own:
whatever JSON value they are given, only a :class:`PretopoError` escapes.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretopo.cli import main, plan_cluster, run
from pretopo.datagen import spec_from_dict, waveform_from_dict
from pretopo.errors import ConfigError, PretopoError
from pretopo.hierarchy import QuasiHierarchy
from pretopo.ingest import raw_series_options
from pretopo.similarity import criterion_from_dict

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MISSING = object()
# json.dumps writes inf as ``Infinity``; this token is written as ``1e400``
OVERFLOWING_FLOAT = "<1e400>"
REPLACEMENTS = [
    True, False, "0.5", "2", [], [1.0, 2.0], {}, {"kind": "sine"}, None,
    10**400, OVERFLOWING_FLOAT, MISSING,
]


def shrunk(config: dict) -> dict:
    """``config`` with at most three items per generated group or cluster,
    so that a case that exits 0 stays cheap."""
    config = copy.deepcopy(config)
    spec = config["dataset"]["spec"]
    for part in spec.get("groups", []) + spec.get("clusters", []):
        part["count"] = min(part["count"], 3)
    return config


def paths(value, prefix=()):
    """The path of every value nested in ``value``, ``value`` itself excluded."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def swapped(doc, path, replacement):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


CONFIGS = [shrunk(json.loads((CONFIG_DIR / name).read_text(encoding="utf-8")))
           for name in ("points_multicriteria.json", "series_benchmark.json")]
# (command, input flag, document, path to swap)
CASES = [
    (command, flag, doc, path)
    for config in CONFIGS
    for command, flag, doc in (("cluster", "--config", config),
                               ("generate", "--spec", config["dataset"]["spec"]))
    for path in paths(doc)
]


# the hierarchy the cut-down points config's run writes, as ``render --dot`` reads it
HIERARCHY = json.loads(json.dumps(run(plan_cluster(CONFIGS[0]))[0].to_json_dict()))
# numbers that int() or float() would have read as valid indices and weights
HIERARCHY_REPLACEMENTS = REPLACEMENTS + [1.5, -1, 2]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES), replacement=st.sampled_from(REPLACEMENTS))
def test_one_swapped_value_keeps_the_exit_code_contract(case, replacement):
    command, flag, doc, path = case
    text = json.dumps(swapped(doc, path, replacement))
    text = text.replace(json.dumps(OVERFLOWING_FLOAT), "1e400")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "input.json").write_text(text, encoding="utf-8")
        out_dir = work / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, flag, str(work / "input.json"), "--out-dir", str(out_dir)])
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            assert out_dir.is_dir()
        else:
            assert stdout.getvalue() == ""
            assert set(json.loads(stderr.getvalue())) == {"error", "message"}
            assert [p.name for p in work.iterdir()] == ["input.json"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(path=st.sampled_from(list(paths(HIERARCHY))),
       replacement=st.sampled_from(HIERARCHY_REPLACEMENTS))
def test_render_dot_of_a_swapped_hierarchy_keeps_the_exit_code_contract(path, replacement):
    text = json.dumps(swapped(HIERARCHY, path, replacement))
    text = text.replace(json.dumps(OVERFLOWING_FLOAT), "1e400")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "hierarchy.json").write_text(text, encoding="utf-8")
        dot = work / "hierarchy.dot"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["render", "--hierarchy", str(work / "hierarchy.json"), "--dot", str(dot)])
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            assert dot.is_file()
        else:
            assert stdout.getvalue() == ""
            assert set(json.loads(stderr.getvalue())) == {"error", "message"}
            assert [p.name for p in work.iterdir()] == ["hierarchy.json"]


# Each reader with the keys of the object it reads.  raw_series_options
# reads the dataset object plan_cluster has checked, so it is given objects
# only.
READERS = [
    (plan_cluster, ["schema_version", "dataset", "criteria", "mode", "d", "th_qh", "rng_seed",
                    "seed_func", "equivalence_tie_break", "output_dir"], True),
    (spec_from_dict, ["kind", "rng_seed", "groups", "clusters"], True),
    (waveform_from_dict, ["kind", "period", "amplitude", "phase", "offset", "duty", "slope",
                          "intercept", "components"], True),
    (criterion_from_dict, ["kind", "radius", "tolerance", "threshold", "channel"], True),
    (raw_series_options, ["rho", "resolutions", "aggregate"], False),
    (QuasiHierarchy.from_json_dict, ["schema_version", "universe_size", "sets", "edges", "roots",
                                     "threshold"], True),
]
# nested objects draw their keys from every reader's fields and the nested
# objects' own: a dataset, a point group, a series cluster
KEYS = sorted({key for _, keys, _ in READERS for key in keys} | {
    "path", "spec", "count", "center", "dispersion", "size_range", "length", "shape",
    "noise_sigma",
})
WORDS = [
    "prefilter", "filter", "points", "series", "sine", "square", "trend", "mix",
    "euclidean", "size", "pearson", "generate", "features", "raw_series", "closest_node",
    "random_neighbor", "lowest_index", "random", "half_hour", "day", "week", "month", "mean",
    "sum", "a", "b",
]
# indices stay small, so that no reader is asked to allocate a huge bitmask
SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 12) | st.sampled_from(WORDS)
    | st.sampled_from([0.5, 1.5, -1.0, 1e308, math.inf, math.nan, 10**400])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=16,
)


def documents(keys, any_value):
    """Objects with some of ``keys``, each holding any value; and, when
    ``any_value``, any other JSON value too."""
    objects = st.fixed_dictionaries({}, optional={key: VALUES for key in keys})
    return objects | VALUES if any_value else objects


@pytest.mark.parametrize("reader, keys, any_value", READERS,
                         ids=[reader.__qualname__ for reader, _, _ in READERS])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_json_readers_raise_only_pretopo_errors(data, reader, keys, any_value):
    doc = data.draw(documents(keys, any_value))
    try:
        reader(doc)
    except PretopoError:
        pass


@pytest.mark.parametrize("reader, doc, message", [
    (criterion_from_dict, {"kind": "pearson"}, "criterion 'pearson' is missing 'threshold'"),
    (spec_from_dict, {"kind": "points"}, "generator spec is missing 'groups'"),
    (waveform_from_dict, {"kind": "sine"}, "waveform spec 'sine' is missing 'period'"),
    (QuasiHierarchy.from_json_dict, {"universe_size": 1}, "hierarchy json is missing 'sets'"),
], ids=["criterion", "generator-spec", "waveform-spec", "hierarchy-sets"])
def test_missing_key_names_the_reader_and_the_key(reader, doc, message):
    with pytest.raises(ConfigError) as exc_info:
        reader(doc)
    assert str(exc_info.value) == message

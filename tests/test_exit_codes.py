"""The CLI's exit-code contract as a property.

Each case starts from a shipped cluster config, from the generator spec
inside it, or from the ``hierarchy.json`` that config's run writes, and
swaps one value for another JSON type, or drops it.  Whatever the swap,
``pretopo`` exits 0, 2 or 3, reports an error as one JSON object and never
as a traceback, and writes nothing unless it exits 0.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pretopo.cli import main, plan_cluster, run

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

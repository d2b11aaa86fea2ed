import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pretopo import datagen, ingest
from pretopo.cli import main, plan_cluster
from pretopo.cli import run as run_plan
from pretopo.similarity import FeatureTable

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


POINTS_SPEC = {
    "schema_version": 1,
    "kind": "points",
    "rng_seed": 42,
    "groups": [
        {"count": 8, "center": [0, 0], "dispersion": 0.4, "size_range": [1, 2]},
        {"count": 8, "center": [10, 0], "dispersion": 0.4, "size_range": [1, 2]},
    ],
}


def cluster_config(features_csv, out_dir):
    return {
        "schema_version": 1,
        "dataset": {"kind": "features", "path": features_csv},
        "criteria": [{"kind": "euclidean", "radius": 2.0}],
        "mode": "prefilter",
        "d": 0,
        "seed_func": "closest_node",
        "th_qh": 0.5,
        "rng_seed": 0,
        "output_dir": out_dir,
    }


def points_dense_spec(seed):
    """The benchmark's points-dense input: 4 groups of 150 points."""
    groups = [((0, 0), (1, 2)), ((10, 0), (8, 10)), ((30, 0), (8, 10)), ((10, 25), (4, 5))]
    return {"kind": "points", "rng_seed": seed, "groups": [
        {"count": 150, "center": list(c), "dispersion": 2.0, "size_range": list(r)}
        for c, r in groups]}


class TestGenerate:
    def test_writes_two_csvs(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", POINTS_SPEC)
        code, out, _ = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "d"))
        assert code == 0
        summary = json.loads(out)
        assert summary["items"] == 16
        assert (tmp_path / "d" / "features.csv").exists()
        assert (tmp_path / "d" / "labels.csv").exists()

    def test_series_spec(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {
            "kind": "series",
            "clusters": [
                {"count": 3, "length": 10, "shape": {"kind": "sine", "period": 10}},
            ],
        })
        code, out, _ = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "d"))
        assert code == 0
        assert json.loads(out)["items"] == 3

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "generate", "--spec", str(bad), "--out-dir", str(tmp_path))
        assert code == 2
        assert "error" in err

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"kind": "points", "groups": [{"count": 0, "center": [0, 0], "dispersion": 1, "size_range": [1, 2]}]})
        code, _, _ = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path))
        assert code == 2

    def test_unsupported_schema_version(self, tmp_path, capsys):
        doc = dict(POINTS_SPEC, schema_version=99)
        spec = write_json(tmp_path / "spec.json", doc)
        code, _, _ = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("version, shown", [("1", "'1'"), (True, "True")])
    def test_schema_version_shown_as_given(self, tmp_path, capsys, version, shown):
        spec = write_json(tmp_path / "spec.json", dict(POINTS_SPEC, schema_version=version))
        code, out, err = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"generator spec: unsupported schema_version {shown}",
        }
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"groups": ["abc"]},
         "generator spec: 'groups' must be a list of objects, got ['abc']"),
        ({"groups": {"a": 1}},
         "generator spec: 'groups' must be a list of objects, got {'a': 1}"),
        ({"groups": [dict(POINTS_SPEC["groups"][0], center=5)]},
         "generator spec: 'center' must be a list of two numbers, got 5"),
        ({"kind": "series", "clusters": [7]},
         "generator spec: 'clusters' must be a list of objects, got [7]"),
        ({"groups": [dict(POINTS_SPEC["groups"][0], size_range=[1])]},
         "generator spec: 'size_range' must be a list of two numbers, got [1]"),
        # a number field takes a JSON number only, not a numeric string
        ({"groups": [dict(POINTS_SPEC["groups"][0], count="8")]},
         "generator spec: 'count' must be a number, got '8'"),
    ], ids=["groups-strings", "groups-object", "center-number", "clusters-numbers", "size_range-one",
            "count-string"])
    def test_spec_shape_error_names_the_field(self, tmp_path, capsys, edit, message):
        spec = write_json(tmp_path / "spec.json", dict(POINTS_SPEC, **edit))
        code, out, err = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "cluster"])
    @pytest.mark.parametrize("seed", ["x", None, float("inf"), 1.9, True, "7"])
    def test_bad_rng_seed_exits_2(self, tmp_path, capsys, command, seed):
        spec = dict(POINTS_SPEC, rng_seed=seed)
        if command == "generate":
            argv = ["--spec", write_json(tmp_path / "spec.json", spec)]
        else:
            config = {"dataset": {"kind": "generate", "spec": spec},
                      "criteria": [{"kind": "euclidean", "radius": 2.0}]}
            argv = ["--config", write_json(tmp_path / "cfg.json", config)]
        code, out, err = run(capsys, command, *argv, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"groups": [dict(POINTS_SPEC["groups"][0], count=20.7)]},
         "generator spec: 'count' must be an integer, got 20.7"),
        ({"kind": "series", "clusters": [
            {"count": 2, "length": 60.5, "shape": {"kind": "sine", "period": 4}}]},
         "generator spec: 'length' must be an integer, got 60.5"),
    ], ids=["count", "length"])
    def test_fractional_integer_exits_2(self, tmp_path, capsys, edit, message):
        spec = write_json(tmp_path / "spec.json", dict(POINTS_SPEC, **edit))
        code, out, err = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["sine", "square"])
    @pytest.mark.parametrize("period", [0, -4.0, float("nan")])
    def test_non_positive_period_exits_2(self, tmp_path, capsys, kind, period):
        spec = write_json(tmp_path / "spec.json", {
            "kind": "series",
            "clusters": [{"count": 2, "length": 5, "shape": {"kind": kind, "period": period}}],
        })
        code, out, err = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        message = (f"{kind} waveform: 'period' must be finite, got nan" if math.isnan(period)
                   else f"waveform period must be > 0, got {float(period)}")
        assert json.loads(err) == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("edit", [
        {"groups": [dict(POINTS_SPEC["groups"][0], dispersion=1e400)]},
        {"groups": [dict(POINTS_SPEC["groups"][0], center=[math.nan, 0])]},
        {"groups": [dict(POINTS_SPEC["groups"][0], size_range=[1, 1e400])]},
        {"kind": "series", "clusters": [
            {"count": 2, "length": 5, "shape": {"kind": "sine", "period": 4, "amplitude": 1e400}},
        ]},
        {"kind": "series", "clusters": [
            {"count": 2, "length": 5, "noise_sigma": 1e400, "shape": {"kind": "sine", "period": 4}},
        ]},
    ], ids=["dispersion", "center", "size_range", "amplitude", "noise_sigma"])
    def test_non_finite_spec_number_exits_2(self, tmp_path, capsys, edit):
        spec = write_json(tmp_path / "spec.json", dict(POINTS_SPEC, **edit))
        code, out, err = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"
        assert "must be finite" in json.loads(err)["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "series", "clusters": [{"count": 2, "length": 5, "shape": {
            "kind": "sine", "period": 4, "amplitude": 1e308, "offset": 1e308}}]},
         "series cluster 0: spec numbers overflow to a non-finite value"),
        ({"kind": "series", "clusters": [{"count": 2, "length": 5, "shape": {
            "kind": "sine", "period": 4, "phase": -1e308}}]},
         "series cluster 0: spec numbers overflow to a non-finite value"),
        ({"kind": "series", "clusters": [
            {"count": 2, "length": 5, "shape": {"kind": "trend", "slope": 1.0}},
            {"count": 2, "length": 5, "noise_sigma": 1e308,
             "shape": {"kind": "sine", "period": 4, "offset": 1e308}}]},
         "series cluster 1: spec numbers overflow to a non-finite value"),
        ({"kind": "points", "groups": [
            POINTS_SPEC["groups"][0],
            {"count": 8, "center": [1e308, 0], "dispersion": 1e308, "size_range": [1, 2]}]},
         "point group 1: spec numbers overflow to a non-finite value"),
        ({"kind": "series", "clusters": [{"count": 2, "length": 5, "shape": {
            "kind": "mix", "components": []}}]},
         "mix waveform needs at least one component"),
    ], ids=["sine-sum", "sine-angle", "noise", "points", "empty-mix"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spec_overflowing_once_combined_exits_2(self, tmp_path, capsys, spec, message):
        """Finite spec numbers whose generated values are not finite."""
        spec_path = write_json(tmp_path / "spec.json", spec)
        code, out, err = run(capsys, "generate", "--spec", spec_path, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "points", "groups": [dict(POINTS_SPEC["groups"][0], count=10**30)]},
         r"group count must be at most \d+, got 10{30}"),
        ({"kind": "series", "clusters": [
            {"count": 2, "length": 10**30, "shape": {"kind": "sine", "period": 4}}]},
         r"series length must be at most \d+, got 10{30}"),
    ], ids=["points-count", "series-length"])
    def test_spec_beyond_numpy_index_range_exits_2(self, tmp_path, capsys, spec, message):
        spec_path = write_json(tmp_path / "spec.json", spec)
        code, out, err = run(capsys, "generate", "--spec", spec_path, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "ConfigError"
        assert re.fullmatch(message, json.loads(err)["message"])
        assert not (tmp_path / "o").exists()

    def test_array_numpy_refuses_exits_3(self, tmp_path, capsys):
        # numpy refuses the 3.47 EiB block at once, so nothing is allocated
        spec = {"kind": "points", "groups": [dict(POINTS_SPEC["groups"][0], count=10**17)]}
        spec_path = write_json(tmp_path / "spec.json", spec)
        code, out, err = run(capsys, "generate", "--spec", spec_path, "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "MemoryError"
        assert json.loads(err)["message"].startswith("Unable to allocate")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", [
        {"kind": "points", "groups": [dict(POINTS_SPEC["groups"][0], count=1_500_000_000_000_000_000)]},
        {"kind": "series", "clusters": [
            {"count": 10**12, "length": 10**7, "shape": {"kind": "sine", "period": 4}}]},
    ], ids=["points", "noise-free-series"])
    def test_table_past_numpy_byte_limit_exits_3(self, tmp_path, capsys, spec):
        # the table's byte count passes what numpy can index: it refuses
        # before allocating, with a ValueError rather than a MemoryError
        spec_path = write_json(tmp_path / "spec.json", spec)
        code, out, err = run(capsys, "generate", "--spec", spec_path, "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "MemoryError"
        assert json.loads(err)["message"].startswith("array is too big")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, seed, digests", [
        ("points_multicriteria", None, (
            "b3856955e92eed56c238a4f517fc0118420f8d3f8001f35c82b5d73b9a1befb8",
            "734abcdaa41c2391bb3e64444d05c2e52ca02781766923824ee3235fdb3994ef")),
        ("series_benchmark", None, (
            "bd253d8459088848077b16f1938c9c864ba0b56a7d6677ea12842b4bb0d52fbc",
            "d8de2547f3cf4e8f78790d3a86f89549c0fd875705642e023111f8f48e084107")),
        ("points-dense", 8, (
            "3cd801ea2fdad0cc77486d07062dea3cfbd6dab01abffc744f8eca61ddf3812f",
            "38c380614ae52bd6d699c7b0774802b4012f559cd55383b97507108f12b16fb5")),
        ("points-dense", 15, (
            "3f8e51d253479d511fd8a2d9e1902b12f1ec9531fafce993c900c2f2d25e816b",
            "38c380614ae52bd6d699c7b0774802b4012f559cd55383b97507108f12b16fb5")),
        ("series_benchmark", 2021, (
            "c15dd9095c15352463db33f5607802fc5f10b8af05e2372da7e5f7ecbf8ce409",
            "443c87c5bf390b1e3e33f10c90f22c812ec8d82896cec63c315f49c704d44d09")),
    ], ids=["points_multicriteria", "series_benchmark", "points-dense-8", "points-dense-15",
            "series-walk-2021"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_outputs_pinned(self, tmp_path, capsys, name, seed, digests):
        """The shipped configs' specs and the benchmark's generated inputs,
        byte for byte."""
        if name == "points-dense":
            doc = points_dense_spec(seed)
        else:
            doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))["dataset"]["spec"]
        if name == "series_benchmark" and seed is not None:  # series-walk: 200 series per shape
            doc["rng_seed"] = seed
            for cluster in doc["clusters"]:
                cluster["count"] = 200
        spec_path = write_json(tmp_path / "spec.json", doc)
        assert run(capsys, "generate", "--spec", spec_path, "--out-dir", str(tmp_path / "o"))[0] == 0
        assert tuple(
            hashlib.sha256((tmp_path / "o" / f).read_bytes()).hexdigest()
            for f in ("features.csv", "labels.csv")
        ) == digests


class TestCluster:
    def prepare(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", POINTS_SPEC)
        run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "data"))
        return str(tmp_path / "data" / "features.csv")

    def test_non_finite_generate_dataset_exits_2(self, tmp_path, capsys):
        spec = dict(POINTS_SPEC, groups=[dict(POINTS_SPEC["groups"][0], center=[math.nan, 0])])
        config = {"dataset": {"kind": "generate", "spec": spec},
                  "criteria": [{"kind": "euclidean", "radius": 2.0}]}
        argv = ["--config", write_json(tmp_path / "cfg.json", config), "--out-dir", str(tmp_path / "o")]
        code, out, err = run(capsys, "cluster", *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError", "message": "generator spec: 'center' must be finite, got nan",
        }
        assert not (tmp_path / "o").exists()

    def test_overflowing_generate_dataset_exits_2(self, tmp_path, capsys):
        spec = dict(POINTS_SPEC, groups=[dict(POINTS_SPEC["groups"][0], center=[1e308, 0],
                                              dispersion=1e308)])
        config = {"dataset": {"kind": "generate", "spec": spec},
                  "criteria": [{"kind": "euclidean", "radius": 2.0}]}
        argv = ["--config", write_json(tmp_path / "cfg.json", config), "--out-dir", str(tmp_path / "o")]
        code, out, err = run(capsys, "cluster", *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "point group 0: spec numbers overflow to a non-finite value",
        }
        assert not (tmp_path / "o").exists()

    def test_end_to_end(self, tmp_path, capsys):
        features = self.prepare(tmp_path, capsys)
        config = write_json(tmp_path / "cfg.json", cluster_config(features, str(tmp_path / "out")))
        code, out, _ = run(capsys, "cluster", "--config", config)
        assert code == 0
        summary = json.loads(out)
        assert summary["clusters"] == 2
        assert summary["outliers"] == 0
        for name in ("assignment.csv", "hierarchy.json", "hierarchy.dot"):
            assert (tmp_path / "out" / name).exists()

    def test_generated_dataset_inline(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "generate", "spec": POINTS_SPEC},
            "criteria": [{"kind": "euclidean", "radius": 2.0}],
            "d": 0,
            "th_qh": 0.5,
        })
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 0
        assert json.loads(out)["clusters"] == 2

    def test_empty_dataset_zero_clusters(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y,size\n", encoding="utf-8")
        config = write_json(tmp_path / "cfg.json", cluster_config(str(empty), str(tmp_path / "out")))
        code, out, _ = run(capsys, "cluster", "--config", config)
        assert code == 0
        assert json.loads(out)["clusters"] == 0
        assert (tmp_path / "out" / "assignment.csv").exists()

    def test_unknown_seed_func_exits_2(self, tmp_path, capsys):
        features = self.prepare(tmp_path, capsys)
        doc = cluster_config(features, str(tmp_path / "out"))
        doc["seed_func"] = "teleport"
        config = write_json(tmp_path / "cfg.json", doc)
        code, _, _ = run(capsys, "cluster", "--config", config)
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("d", "x"),
        ("d", -1),
        ("d", None),
        ("th_qh", "abc"),
        ("th_qh", [0.5]),
        ("rng_seed", "x"),
        ("d", 1.5),
        ("rng_seed", 2.5),
        ("d", True),
        ("th_qh", True),
    ])
    def test_bad_scalar_exits_2(self, tmp_path, capsys, key, value):
        features = self.prepare(tmp_path, capsys)
        doc = cluster_config(features, str(tmp_path / "out"))
        doc[key] = value
        config = write_json(tmp_path / "cfg.json", doc)
        code, _, err = run(capsys, "cluster", "--config", config)
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"
        assert repr(key) in json.loads(err)["message"]

    @pytest.mark.parametrize("features_text", [
        "x,y,size\n",
        "x,y,size\n0.0,0.0,1.0\n",
        # exits 3 if it is read
        "x,y,size,series_0,series_1\n0.0,0.0,1.0,0.0,1.0\n1.0,nan,1.0,1.0,0.0\n",
    ], ids=["empty", "one-item", "non-finite"])
    @pytest.mark.parametrize("key, value", [
        ("mode", "nope"),
        ("equivalence_tie_break", "bogus"),
        ("th_qh", 5),
        ("th_qh", 0),
        ("th_qh", "nan"),
        ("seed_func", "teleport"),
        ("criteria", "euclid"),
        ("criteria", {"kind": "euclidean", "radius": 2.0}),
        ("criteria", [{"kind": "euclidean", "radius": -1}]),
        ("criteria", []),
        # the default closest_node walk needs a distance criterion
        ("criteria", [{"kind": "pearson", "threshold": 0.5}]),
        ("output_dir", 5),
        ("dataset", {"kind": "features", "path": None}),
        ("criteria", [{"kind": "euclidean", "radius": "abc"}]),
        ("criteria", [{"kind": "size", "tolerance": None}]),
        ("criteria", [{"kind": "euclidean", "radius": 2.0},
                      {"kind": "pearson", "threshold": [0.5]}]),
        ("criteria", [{"kind": "euclidean", "radius": True}]),
        # json.dumps writes the NaN token, which Python's JSON reader accepts
        ("criteria", [{"kind": "size", "tolerance": math.nan}]),
        ("criteria", [{"kind": "euclidean", "radius": 2.0},
                      {"kind": "pearson", "threshold": 0.5, "channel": ["a"]}]),
        ("criteria", [{"kind": "euclidean", "radius": 2.0},
                      {"kind": "pearson", "threshold": 0.5, "channel": {"a": 1}}]),
        # numeric strings, in ASCII or other digits, are not numbers
        ("th_qh", "0.5"),
        ("d", " 2 "),
        ("th_qh", "\u0660.\u0665"),
        ("criteria", [{"kind": "euclidean", "radius": "2.0"}]),
        # json.dumps writes the Infinity token, which Python's JSON reader accepts
        ("criteria", [{"kind": "euclidean", "radius": math.inf}]),
        ("criteria", [{"kind": "size", "tolerance": math.inf}]),
    ])
    def test_bad_option_exits_2_before_any_output(
        self, tmp_path, capsys, features_text, key, value
    ):
        features = tmp_path / "f.csv"
        features.write_text(features_text, encoding="utf-8")
        doc = cluster_config(str(features), str(tmp_path / "out"))
        doc[key] = value
        config = write_json(tmp_path / "cfg.json", doc)
        code, out, err = run(capsys, "cluster", "--config", config)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    def test_overflowing_radius_exits_2(self, tmp_path, capsys):
        # Python's JSON reader reads 1e400 as inf
        features = tmp_path / "f.csv"
        features.write_text("x,y\n0.0,0.0\n1.0,0.0\n", encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cluster_config(str(features), str(tmp_path / "out")))
                          .replace('"radius": 2.0', '"radius": 1e400'), encoding="utf-8")
        code, out, err = run(capsys, "cluster", "--config", str(config))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ConfigError", "message": "euclidean 'radius' must be finite, got inf",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("features_text", [
        "x,y,size\n", "x,y,size\n0.0,nan,1.0\n"
    ], ids=["empty", "non-finite"])
    def test_no_criteria_random_walk_exits_2_before_any_output(
        self, tmp_path, capsys, features_text
    ):
        features = tmp_path / "f.csv"
        features.write_text(features_text, encoding="utf-8")
        doc = cluster_config(str(features), str(tmp_path / "out"))
        doc.update(criteria=[], seed_func="random_neighbor")
        config = write_json(tmp_path / "cfg.json", doc)
        code, out, err = run(capsys, "cluster", "--config", config)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError", "message": "at least one criterion is required",
        }
        assert not (tmp_path / "out").exists()

    def test_string_criteria_named_in_message(self, tmp_path, capsys):
        features = self.prepare(tmp_path, capsys)
        doc = cluster_config(features, str(tmp_path / "out"))
        doc["criteria"] = "euclid"
        config = write_json(tmp_path / "cfg.json", doc)
        _, _, err = run(capsys, "cluster", "--config", config)
        assert json.loads(err)["message"] == (
            "cluster config: 'criteria' must be a list of objects, got 'euclid'"
        )

    def features_run(self, tmp_path, capsys, text):
        features = tmp_path / "f.csv"
        features.write_text(text, encoding="utf-8")
        config = write_json(tmp_path / "cfg.json", cluster_config(str(features), str(tmp_path / "out")))
        code, _, err = run(capsys, "cluster", "--config", config)
        return code, json.loads(err) if err else None

    @pytest.mark.parametrize("cell", ["abc", "", "1,2"])
    def test_non_numeric_feature_exits_2(self, tmp_path, capsys, cell):
        code, err = self.features_run(
            tmp_path, capsys, f'x,y,size\n0.0,0.0,1.0\n1.0,"{cell}",1.0\n'
        )
        assert code == 2
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{tmp_path / 'f.csv'}: line 3:")

    @pytest.mark.parametrize("column", ["series_a", "series_", "series_1.5"])
    def test_non_integer_series_header_exits_2(self, tmp_path, capsys, column):
        code, err = self.features_run(
            tmp_path, capsys, f"x,y,{column}\n0.0,0.0,1.0\n1.0,1.0,2.0\n"
        )
        assert code == 2
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{tmp_path / 'f.csv'}: line 1:")
        assert repr(column) in err["message"]
        assert not (tmp_path / "out").exists()

    def test_short_feature_row_exits_2(self, tmp_path, capsys):
        code, err = self.features_run(tmp_path, capsys, "x,y,size\n0.0,0.0,1.0\n1.0,1.0\n")
        assert code == 2
        assert err["error"] == "ParseError"

    @pytest.mark.parametrize("column", ["x", "y", "size", "series_1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_exits_3(self, tmp_path, capsys, column, value):
        header = ["x", "y", "size", "series_0", "series_1"]
        row = ["1.0", "0.0", "1.0", "0.5", "0.25"]
        row[header.index(column)] = value
        text = ",".join(header) + "\n0.0,0.0,1.0,0.0,1.0\n" + ",".join(row) + "\n"
        code, err = self.features_run(tmp_path, capsys, text)
        assert code == 3
        assert err["error"] == "DataError"
        assert repr(column) in err["message"]

    @pytest.mark.parametrize("text", [
        "x,y,size\n0.0,0.0,1.0\n1.0,0.0,-2.5\n",  # read by numpy's columnar reader at first
        'x,y,size\n0.0,0.0,1.0\n1.0,0.0,"-2.5"\n',  # read by the row reader only
    ], ids=["columnar", "quoted"])
    def test_negative_size_exits_3_with_its_line(self, tmp_path, capsys, text):
        code, err = self.features_run(tmp_path, capsys, text)
        assert code == 3
        assert err == {
            "error": "DataError",
            "message": f"{tmp_path / 'f.csv'}: line 3: column 'size' holds negative -2.5",
        }
        assert not (tmp_path / "out").exists()

    def test_negative_zero_size_is_accepted(self, tmp_path, capsys):
        code, err = self.features_run(tmp_path, capsys, "x,y,size\n0.0,0.0,-0\n1.0,0.0,0.5\n")
        assert (code, err) == (0, None)

    def test_raw_series_dataset(self, tmp_path, capsys):
        # two sites share a weekly rhythm, the third follows its own beat
        rows = ["site_id,timestamp,value"]
        for site, pattern in (("a", 7), ("b", 7), ("c", 11)):
            for d in range(400):
                rows.append(f"{site},{d * 86400},{1.0 + 0.3 * (d % pattern)}")
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {
                "kind": "raw_series",
                "path": str(raw),
                "resolutions": ["day", "month"],
                "rho": 0.5,
            },
            "seed_func": "random_neighbor",
            "d": 1,
            "th_qh": 0.5,
        })
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 0
        summary = json.loads(out)
        assert summary["clusters"] == 1
        assert summary["outliers"] == 1
        text = (tmp_path / "o" / "assignment.csv").read_text(encoding="utf-8")
        assert "a,0" in text and "b,0" in text and "c,-1" in text


class TestPearsonScale:
    """Correlations do not depend on the scale of the series."""

    # at 5e307 a row's sum overflows, at 1e200 its squares, at 1e-200 they underflow
    @pytest.mark.parametrize("scale", [1e-200, 1e200, 5e307])
    def test_items_cluster_at_any_scale(self, tmp_path, capsys, monkeypatch, scale):
        monkeypatch.chdir(tmp_path)
        features = tmp_path / "features.csv"
        rows = [(1, 2, 3), (1, 2, 3.1), (3, 1, 2)]
        features.write_text("series_0,series_1,series_2\n" + "".join(
            ",".join(repr(v * scale) for v in row) + "\n" for row in rows), encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(features_config(
            str(features), {"kind": "pearson", "threshold": 0.9}, seed_func="random_neighbor", d=1), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "cluster", "--config", str(config), "--out-dir", "o")
        assert (code, err) == (0, "")
        assert (tmp_path / "o" / "assignment.csv").read_bytes() == (
            b"item_id,cluster_id\r\n0,0\r\n1,0\r\n2,-1\r\n"
        )

    def test_constant_site_names_the_site_and_the_resolution(self, tmp_path, capsys):
        # a closed shop among four sites reads 0 throughout
        rows = ["site_id,timestamp,value"]
        for k, site in enumerate(["a", "b", "closed", "d"]):
            rows += [f"{site},{day * 86400},{0.0 if site == 'closed' else 1.0 + day % (5 + k)}"
                     for day in range(60)]
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "raw_series", "path": str(raw),
                        "resolutions": ["day", "week"], "rho": 0.5},
            "seed_func": "random_neighbor",
        })
        code, out, err = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "DegenerateSeriesError",
            "message": "constant series in channel 'day' has no linear signal (item closed)",
        }
        assert not (tmp_path / "o").exists()

    def test_constant_feature_series_names_its_index(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("series_0,series_1\n1,2\n4,4\n", encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(features_config(
            str(features), {"kind": "pearson", "threshold": 0.9}, seed_func="random_neighbor"), encoding="utf-8")
        code, out, err = run(capsys, "cluster", "--config", str(config), "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "DegenerateSeriesError", "message": "constant series has no linear signal (item 1)",
        }


class TestEuclideanScale:
    """Distances do not depend on the scale of the positions."""

    # at 1e200 the squares overflow, at 1e-170 they underflow; beside 1e200,
    # the differences among 0, 1 and 5 must keep their own scale
    @pytest.mark.parametrize("xs, radius, clusters", [
        ((0, 1, 5), 2, b"0,0\r\n1,0\r\n2,-1\r\n"),
        ((0, 1e200, 5e200), 2e200, b"0,0\r\n1,0\r\n2,-1\r\n"),
        ((0, 1e-170, 5e-170), 2e-170, b"0,0\r\n1,0\r\n2,-1\r\n"),
        ((0, 1, 5, 1e200), 2, b"0,0\r\n1,0\r\n2,-1\r\n3,-1\r\n"),
    ], ids=["unit", "huge", "tiny", "mixed"])
    def test_items_cluster_at_any_scale(self, tmp_path, capsys, monkeypatch, xs, radius, clusters):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "features.csv").write_text("x,y\n" + "".join(f"{x!r},0\n" for x in xs), encoding="utf-8")
        (tmp_path / "cfg.json").write_text(
            features_config("features.csv", {"kind": "euclidean", "radius": radius}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "cluster", "--config", "cfg.json", "--out-dir", "o")
        assert (code, err) == (0, "")
        assert (tmp_path / "o" / "assignment.csv").read_bytes() == (
            b"item_id,cluster_id\r\n" + clusters
        )


class TestPlanCluster:
    @pytest.mark.parametrize("dataset, criteria", [
        ({"kind": "features", "path": "features.csv"}, [{"kind": "euclidean", "radius": 2.0}]),
        ({"kind": "raw_series", "path": "raw.csv", "rho": 0.8}, []),
        ({"kind": "generate", "spec": POINTS_SPEC}, [{"kind": "euclidean", "radius": 2.0}]),
    ], ids=["features", "raw_series", "generate"])
    def test_planning_reads_no_data(self, monkeypatch, dataset, criteria):
        class DataRead(Exception):
            pass

        def refuse(*args):
            raise DataRead

        monkeypatch.setattr(FeatureTable, "from_csv", refuse)
        monkeypatch.setattr(ingest, "load_csv", refuse)
        monkeypatch.setattr(datagen, "generate", refuse)
        plan = plan_cluster({"dataset": dataset, "criteria": criteria,
                             "seed_func": "random_neighbor", "d": 1})
        assert (plan.d, plan.mode, plan.output_dir) == (1, "prefilter", ".")
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.d = 2
        with pytest.raises(DataRead):
            run_plan(plan)

    @pytest.mark.parametrize("dataset", [
        {"kind": "features", "path": "missing.csv"},
        {"kind": "generate", "spec": POINTS_SPEC},
    ], ids=["missing-features-file", "generate"])
    def test_series_channel_is_refused_before_data_is_read(self, tmp_path, capsys, monkeypatch, dataset):
        # neither table holds channels, so the plan refuses one, naming it
        calls = []
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(datagen, "generate", lambda *args: calls.append(args))
        doc = {"dataset": dataset, "criteria": [{"kind": "pearson", "threshold": 0.5, "channel": "day"}],
               "seed_func": "random_neighbor"}
        code, out, err = run(capsys, "cluster", "--config", write_json(tmp_path / "c.json", doc), "--out-dir", "out")
        assert (code, out, calls) == (2, "", [])
        assert json.loads(err) == {"error": "ConfigError", "message": "table has no series channel 'day'"}
        assert sorted(tmp_path.iterdir()) == [tmp_path / "c.json"]

    def test_raw_series_refuses_criteria_before_data_is_read(self, tmp_path, capsys, monkeypatch):
        # its criteria come from 'rho', so a list is refused, malformed or not
        calls = []
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(ingest, "load_csv", lambda *args: calls.append(args))
        (tmp_path / "raw.csv").write_text("site_id,timestamp,value\n" + "".join(
            f"{site},{d * 86400},{1.0 + 0.3 * (d % period)}\n"
            for site, period in (("a", 7), ("b", 7), ("c", 11)) for d in range(60)), encoding="utf-8")
        doc = {"dataset": {"kind": "raw_series", "path": "raw.csv", "rho": 0.5, "resolutions": ["day"]},
               "criteria": [{"kind": "no-such-kind"}, {"kind": "pearson", "threshold": 7}],
               "seed_func": "random_neighbor"}
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, "cluster", "--config", write_json(tmp_path / "c.json", doc), "--out-dir", "out")
        assert (code, out, calls) == (2, "", [])
        assert json.loads(err) == {"error": "ConfigError", "message": (
            "raw_series dataset: 'criteria' must be empty or absent; "
            "its criteria are one pearson ball per resolution, from 'rho'")}
        assert sorted(tmp_path.iterdir()) == sorted([*before, tmp_path / "c.json"])

    def test_missing_features_file_is_planned_then_exits_2(self, tmp_path, capsys):
        doc = cluster_config(str(tmp_path / "missing.csv"), str(tmp_path / "out"))
        assert plan_cluster(doc).output_dir == str(tmp_path / "out")
        code, out, err = run(capsys, "cluster", "--config", write_json(tmp_path / "cfg.json", doc))
        assert code == 2
        assert out == ""
        assert "missing.csv" in json.loads(err)["message"]
        assert not (tmp_path / "out").exists()


class TestNonFiniteReadings:
    @pytest.mark.parametrize("reading", ["a,86400,nan", "a,86400,inf", "a,nan,1.0"])
    def test_ingest_exits_3(self, tmp_path, capsys, reading):
        raw = tmp_path / "raw.csv"
        raw.write_text(f"site_id,timestamp,value\na,0,1.0\n{reading}\nb,0,1.0\nb,86400,2.0\n", encoding="utf-8")
        code, out, err = run(capsys, "ingest", "--input", str(raw), "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert out == ""
        assert json.loads(err) == {
            "error": "DataError",
            "message": f"{raw}: line 3: non-finite reading (timestamp {reading.split(',')[1]!r}, "
                       f"value {reading.split(',')[2]!r})",
        }

    def test_raw_series_cluster_exits_3(self, tmp_path, capsys):
        rows = ["site_id,timestamp,value"]
        for site in ("a", "b"):
            rows += [f"{site},{d * 86400},{1.0 + d % 7}" for d in range(60)]
        rows[10] = "a,777600,nan"
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "raw_series", "path": str(raw),
                        "resolutions": ["day", "week"], "rho": 0.5},
            "seed_func": "random_neighbor",
        })
        code, out, err = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert out == ""
        assert json.loads(err)["message"].startswith(f"{raw}: line 11: non-finite reading")


class TestOversizedCsvField:
    """A field longer than ``csv.field_size_limit()`` is a parse error."""

    LONG = "s" * 200_000

    def write_raw(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("site_id,timestamp,value\n" + self.LONG + ",0,1.0\n", encoding="utf-8")
        return raw

    def test_ingest_exits_2(self, tmp_path, capsys):
        raw = self.write_raw(tmp_path)
        code, out, err = run(capsys, "ingest", "--input", str(raw), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ParseError",
            "message": f"{raw}: line 2: field larger than field limit (131072)",
        }
        assert not (tmp_path / "o").exists()

    def test_raw_series_cluster_exits_2(self, tmp_path, capsys):
        raw = self.write_raw(tmp_path)
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "raw_series", "path": str(raw), "resolutions": ["day"], "rho": 0.5},
            "seed_func": "random_neighbor",
        })
        code, out, err = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ParseError"
        assert not (tmp_path / "o").exists()

    def assert_parse_error(self, result, line, path):
        code, out, err = result
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ParseError",
            "message": f"{path}: line {line}: field larger than field limit (131072)",
        }

    def test_features_cluster_exits_2(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        features.write_text(f"x,y,size\n0.0,0.0,1.0\n1.0,0.0,{self.LONG}\n", encoding="utf-8")
        config = write_json(tmp_path / "cfg.json", cluster_config(str(features), str(tmp_path / "o")))
        self.assert_parse_error(run(capsys, "cluster", "--config", config), 3, features)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("which", ["assignment", "labels"])
    def test_eval_exits_2(self, tmp_path, capsys, which):
        paths = {}
        for name in ("assignment", "labels"):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("item_id,cluster_id\n0,0\n1,0\n", encoding="utf-8")
        paths[which].write_text(f"item_id,cluster_id\n{self.LONG},0\n", encoding="utf-8")
        result = run(capsys, "eval", "--assignment", str(paths["assignment"]),
                     "--labels", str(paths["labels"]))
        self.assert_parse_error(result, 2, paths[which])

    @pytest.mark.parametrize("which", ["assignment", "features"])
    def test_render_svg_exits_2(self, tmp_path, capsys, which):
        paths = {"assignment": tmp_path / "a.csv", "features": tmp_path / "f.csv"}
        paths["assignment"].write_text("item_id,cluster_id\n0,0\n", encoding="utf-8")
        paths["features"].write_text("x,y\n0.0,0.0\n", encoding="utf-8")
        paths[which].write_text(paths[which].read_text(encoding="utf-8") + self.LONG + "\n", encoding="utf-8")
        svg = tmp_path / "plot.svg"
        result = run(capsys, "render", "--assignment", str(paths["assignment"]),
                     "--features", str(paths["features"]), "--svg", str(svg))
        self.assert_parse_error(result, 3, paths[which])
        assert not svg.exists()


# each file a command reads, with a command that reads it and writes "o"
EVERY_INPUT = [
    ("spec.json", ["generate", "--spec", "spec.json", "--out-dir", "o"]),
    ("features.json", ["cluster", "--config", "features.json"]),
    ("features.csv", ["cluster", "--config", "features.json"]),
    ("raw.csv", ["cluster", "--config", "raw.json"]),
    ("assignment.csv", ["eval", "--assignment", "assignment.csv", "--labels", "labels.csv"]),
    ("labels.csv", ["eval", "--assignment", "assignment.csv", "--labels", "labels.csv"]),
    ("features.csv", ["render", "--assignment", "assignment.csv",
                      "--features", "features.csv", "--svg", "o"]),
    ("hierarchy.json", ["render", "--hierarchy", "hierarchy.json", "--dot", "o"]),
    ("raw.csv", ["ingest", "--input", "raw.csv", "--out-dir", "o", "--resolutions", "day"]),
]


def input_id(value):
    return value if isinstance(value, str) else value[0]


def write_inputs(work):
    """The files EVERY_INPUT names, each one a command reads without error."""
    rows = ["site_id,timestamp,value"]
    rows += [f"{site},{d * 86400},{1.0 + d % (5 + k)}"
             for k, site in enumerate("ab") for d in range(30)]
    files = {
        "spec.json": json.dumps(POINTS_SPEC),
        "features.json": json.dumps(cluster_config("features.csv", "o")),
        "features.csv": "x,y,size\n0.0,0.0,1.0\n1.0,0.0,1.0\n",
        "raw.json": json.dumps({
            "dataset": {"kind": "raw_series", "path": "raw.csv",
                        "resolutions": ["day"], "rho": 0.5},
            "seed_func": "random_neighbor",
            "output_dir": "o",
        }),
        "raw.csv": "\n".join(rows) + "\n",
        "assignment.csv": "item_id,cluster_id\n0,0\n1,0\n",
        "labels.csv": "item_id,label\n0,0\n1,0\n",
        "hierarchy.json": json.dumps({"threshold": 0.5, "universe_size": 1, "sets": [[0]],
                                      "edges": [], "roots": [0]}),
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")


class TestNonUtf8Input:
    """Bytes that are not UTF-8 are a parse error in every file a command reads."""

    @pytest.mark.parametrize("bad, argv", EVERY_INPUT, ids=input_id)
    def test_exits_2(self, tmp_path, capsys, monkeypatch, bad, argv):
        for case in ("good", "bad"):
            work = tmp_path / case
            work.mkdir()
            write_inputs(work)
            monkeypatch.chdir(work)
            if case == "good":
                assert run(capsys, *argv)[0] == 0
                continue
            with open(bad, "ab") as fh:
                fh.write(b"\xff\n")
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert json.loads(err)["error"] == "ParseError"
            assert json.loads(err)["message"].startswith(f"{bad}: input is not UTF-8 text")
            assert not (work / "o").exists()


class TestRefusedInputPath:
    """An input path the system refuses is a config error with the system's
    message, which names the path, in every command."""

    @pytest.mark.parametrize("refusal", ["missing", "directory"])
    @pytest.mark.parametrize("bad, argv", EVERY_INPUT, ids=input_id)
    def test_exits_2(self, tmp_path, capsys, monkeypatch, bad, argv, refusal):
        write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / bad).unlink()
        if refusal == "directory":
            (tmp_path / bad).mkdir()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        reason = "No such file or directory" if refusal == "missing" else "Is a directory"
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"[Errno {2 if refusal == 'missing' else 21}] {reason}: {bad!r}",
        }
        assert not (tmp_path / "o").exists()


FEATURES = ["cluster", "--config", "features.json"]
RAW = ["ingest", "--input", "raw.csv", "--out-dir", "o", "--resolutions", "day"]
EVAL = ["eval", "--assignment", "assignment.csv", "--labels", "labels.csv"]
SVG = ["render", "--assignment", "assignment.csv", "--features", "features.csv", "--svg", "o"]
LONG_FIELD = "s" * 200_000

# (file, command, the rows before the bad one, the bad row, error, exit code,
# message after "PATH: line N: "); each file holds a quoted field that spans lines
ROW_POSITIONS = [
    ("features.csv", FEATURES, 'x,y,note\n0,0,c\n1,1,"a\nb"\n', "nan,2,d\n",
     "DataError", 3, "column 'x' holds non-finite nan"),
    ("features.csv", FEATURES, 'x,y,note\r\n0,0,"a\r\nb"\r\n', "abc,2,d\r\n",
     "ParseError", 2, "column 'x' needs a number, got 'abc'"),
    ("features.csv", FEATURES, 'x,y,note\r0,0,"a\rb"\r', "\r1,1,e\r",
     "ParseError", 2, "column 'x' needs a number, got None"),
    ("features.csv", FEATURES, 'x,y,size\n0,"0\n",1\n', f"1,0,{LONG_FIELD}\n",
     "ParseError", 2, "field larger than field limit (131072)"),
    ("raw.csv", RAW, 'site_id,timestamp,value,note\na,0,1,"x\ny"\n', "a,60,-1,z\n",
     "DataError", 3, "negative consumption -1.0"),
    ("raw.csv", RAW, 'site_id,timestamp,value,note\r\n\r\na,0,1,"x\r\ny"\r\n\r\n', "a,0,2,z\r\n",
     "DataError", 3, "timestamps for site 'a' must be strictly increasing"),
    ("raw.csv", RAW, 'site_id,timestamp,value\r"a\rb",0,1\r', "a,yesterday,1\r",
     "ParseError", 2, "bad timestamp 'yesterday'"),
    ("raw.csv", RAW, 'site_id,timestamp,value\n"a\nb",0,1\n', f'"a\n{LONG_FIELD}",60,1\n',
     "ParseError", 2, "field larger than field limit (131072)"),
    ("assignment.csv", EVAL, 'item_id,cluster_id\n1,"a\nb"\n0,0\n', "0,1\n",
     "ConfigError", 2, "item id '0' repeats line 4"),
    ("labels.csv", EVAL, 'item_id,label\n1,"a\nb"\n', "0\n",
     "ConfigError", 2, "malformed row ['0']"),
    ("labels.csv", EVAL, 'item_id,label\r\n0,"a\r\nb"\r\n', "\r\n1,0\r\n",
     "ConfigError", 2, "malformed row []"),
    ("assignment.csv", SVG, 'item_id,cluster_id\r1,"a\rb"\r', "1,0\r",
     "ConfigError", 2, "item id '1' repeats line 2"),
    ("assignment.csv", SVG, 'item_id,cluster_id\n1,"a\nb"\n', f"{LONG_FIELD},0\n",
     "ParseError", 2, "field larger than field limit (131072)"),
]


@pytest.mark.parametrize("bad, argv, before, row, error, code, detail", ROW_POSITIONS, ids=[
    "features-non-finite", "features-crlf-not-a-number", "features-cr-blank-line",
    "features-oversized", "raw-negative", "raw-crlf-blank-lines", "raw-cr-bad-timestamp",
    "raw-oversized", "eval-repeated-id", "eval-one-column-row", "eval-crlf-blank-line",
    "svg-cr-repeated-id", "svg-oversized",
])
def test_row_error_names_the_physical_line(tmp_path, capsys, monkeypatch,
                                           bad, argv, before, row, error, code, detail):
    """A row error reads ``PATH: line N:``, where N is the physical line the
    row starts on: one plus the LF, CR and CRLF breaks before it."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    (tmp_path / bad).write_bytes((before + row).encode())
    line = 1 + len(re.findall(r"\r\n|\r|\n", before))
    assert run(capsys, *argv) == (code, "", json.dumps({
        "error": error, "message": f"{bad}: line {line}: {detail}",
    }) + "\n")
    assert not (tmp_path / "o").exists()


ENCODING_PROBE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from pretopo import cli
codes = []
for work, argv in json.loads(sys.argv[2]):
    os.chdir(work)
    codes.append(cli.main(argv))
print(json.dumps(codes))
"""


class TestTextEncoding:
    """Every input is read as UTF-8 past a leading byte-order mark, and every
    output is written as UTF-8, whatever the locale."""

    @pytest.mark.parametrize("bad, argv", EVERY_INPUT, ids=input_id)
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, monkeypatch, bad, argv):
        results = []
        for case in ("plain", "bom"):
            work = tmp_path / case
            work.mkdir()
            write_inputs(work)
            if case == "bom":
                (work / bad).write_bytes(b"\xef\xbb\xbf" + (work / bad).read_bytes())
            monkeypatch.chdir(work)
            code, out, err = run(capsys, *argv)
            out_path = work / "o"
            written = [out_path] if out_path.is_file() else sorted(out_path.rglob("*.*"))
            results.append((code, out, err, [(p.name, p.read_bytes()) for p in written]))
        assert results[0][0] == 0
        assert results[1] == results[0]

    def test_no_command_uses_the_locale_encoding(self, tmp_path):
        # a fresh interpreter, in which opening a file without an encoding is an error
        runs = []
        for k, (_, argv) in enumerate(EVERY_INPUT):
            work = tmp_path / str(k)
            work.mkdir()
            write_inputs(work)
            runs.append((str(work), argv))
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", ENCODING_PROBE, str(SRC), json.dumps(runs)],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [0] * len(runs)

class TestRawSeriesOptions:
    @pytest.mark.parametrize("options", [
        {"resolutions": "half_hour"},
        {"resolutions": []},
        {"resolutions": ["half_hour", "hour"]},
        {"resolutions": [["day"]]},
        {"aggregate": "median"},
        {"aggregate": None},
        {"rho": {"day": 0.8}},
        {"rho": {"half_hour": "x"}},
        {"rho": "abc"},
        {"rho": [0.8]},
        {"rho": None},
        {"rho": 1.5},
        {"rho": "nan"},
        {"rho": {"half_hour": -1}},
        {"rho": "0.8"},
        {"rho": {"half_hour": "0.5"}},
        {"resolutions": ["day", "day", "half_hour"]},
    ], ids=lambda options: json.dumps(options))
    def test_bad_option_exits_2_before_readings_are_read(self, tmp_path, capsys, options):
        # the readings would exit 3 if they were read
        raw = tmp_path / "raw.csv"
        raw.write_text("site_id,timestamp,value\na,0,nan\n", encoding="utf-8")
        dataset = {"kind": "raw_series", "path": str(raw),
                   "resolutions": ["half_hour"], "rho": 0.8, **options}
        config = write_json(tmp_path / "cfg.json", {"dataset": dataset, "seed_func": "random_neighbor"})
        code, out, err = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("readings", ["", "a,0,nan\n"], ids=["empty", "non-finite"])
    def test_closest_node_walk_exits_2_before_readings_are_read(self, tmp_path, capsys, readings):
        raw = tmp_path / "raw.csv"
        raw.write_text("site_id,timestamp,value\n" + readings, encoding="utf-8")
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "raw_series", "path": str(raw), "rho": 0.8},
        })
        code, out, err = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "no distance-kind criterion available for the closest-node walk",
        }
        assert not (tmp_path / "o").exists()

    def test_rho_map_per_resolution(self, tmp_path, capsys):
        rows = ["site_id,timestamp,value"]
        for site in ("a", "b"):
            rows += [f"{site},{d * 86400},{1.0 + d % 7}" for d in range(60)]
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "raw_series", "path": str(raw), "resolutions": ["day", "week"],
                        "rho": {"day": 0.5, "week": 0.5, "month": "unused"}},
            "seed_func": "random_neighbor",
        })
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 0
        assert json.loads(out)["sets"] > 0


class TestEval:
    def test_identical_files_ari_one(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("item_id,cluster_id\n0,0\n1,0\n2,1\n3,1\n", encoding="utf-8")
        b = tmp_path / "b.csv"
        b.write_text("item_id,label\n0,0\n1,0\n2,1\n3,1\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval", "--assignment", str(a), "--labels", str(b))
        assert code == 0
        doc = json.loads(out)
        assert doc["ari"] == 1.0
        assert doc["n_items"] == 4

    def test_disjoint_two_item_labelings(self, tmp_path, capsys):
        # oracle value: one pair, together in truth, apart in the found
        # labels: a=0,b=1,c=0,d=0 makes the adjusted index 0
        a = tmp_path / "a.csv"
        a.write_text("item_id,cluster_id\nx,0\ny,1\n", encoding="utf-8")
        b = tmp_path / "b.csv"
        b.write_text("item_id,label\nx,5\ny,5\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval", "--assignment", str(a), "--labels", str(b))
        assert code == 0
        assert json.loads(out)["ari"] == 0.0

    @pytest.mark.parametrize("repeated", ["assignment", "labels"])
    def test_repeated_item_id_exits_2(self, tmp_path, capsys, repeated):
        a = tmp_path / "a.csv"
        a.write_text("item_id,cluster_id\n0,1\n1,1\n", encoding="utf-8")
        b = tmp_path / "b.csv"
        b.write_text("item_id,label\n0,0\n1,1\n", encoding="utf-8")
        (a if repeated == "assignment" else b).write_text("item_id,x\n0,1\n1,1\n0,2\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--assignment", str(a), "--labels", str(b))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"{a if repeated == 'assignment' else b}: line 4: item id '0' repeats line 2",
        }

    def test_mismatched_ids_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("item_id,cluster_id\n0,0\n1,0\n", encoding="utf-8")
        b = tmp_path / "b.csv"
        b.write_text("item_id,label\n0,0\n2,0\n", encoding="utf-8")
        code, _, _ = run(capsys, "eval", "--assignment", str(a), "--labels", str(b))
        assert code == 2


class TestRender:
    def make_outputs(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", POINTS_SPEC)
        run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "data"))
        features = str(tmp_path / "data" / "features.csv")
        config = write_json(tmp_path / "cfg.json", cluster_config(features, str(tmp_path / "out")))
        run(capsys, "cluster", "--config", config)
        return features, tmp_path / "out"

    def test_svg_has_two_cluster_colors(self, tmp_path, capsys):
        features, out = self.make_outputs(tmp_path, capsys)
        svg_path = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "render", "--assignment", str(out / "assignment.csv"),
                         "--features", features, "--svg", str(svg_path))
        assert code == 0
        svg = svg_path.read_text(encoding="utf-8")
        fills = {part.split('"')[0] for part in svg.split('fill="')[1:]}
        fills.discard("#ffffff")
        assert len(fills) == 2

    def test_outliers_black(self, tmp_path, capsys):
        features_csv = tmp_path / "f.csv"
        features_csv.write_text("x,y\n0.0,0.0\n1.0,0.0\n50.0,0.0\n", encoding="utf-8")
        assignment = tmp_path / "a.csv"
        assignment.write_text("item_id,cluster_id\n0,0\n1,0\n2,-1\n", encoding="utf-8")
        svg_path = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "render", "--assignment", str(assignment),
                         "--features", str(features_csv), "--svg", str(svg_path))
        assert code == 0
        assert "#000000" in svg_path.read_text(encoding="utf-8")

    # a span from -1e308 to 1e308 overflows the float range; a zero span
    # counts as one unit of the input, at any scale
    @pytest.mark.parametrize("rows, centres", [
        ("-1e308,0\n1e308,0\n0,0\n", [("40.00", "440.00"), ("600.00", "440.00"), ("320.00", "440.00")]),
        ("2,0\n2,1e-3\n2,5e-4\n", [("40.00", "440.00"), ("40.00", "439.44"), ("40.00", "439.72")]),
        ("1e308,-1e308\n", [("40.00", "440.00")]),
    ], ids=["huge-span", "vertical-line", "one-huge-point"])
    def test_svg_coordinates_at_any_scale(self, tmp_path, capsys, rows, centres):
        features_csv = tmp_path / "f.csv"
        features_csv.write_text("x,y\n" + rows, encoding="utf-8")
        assignment = tmp_path / "a.csv"
        assignment.write_text("item_id,cluster_id\n" + "".join(f"{i},0\n" for i in range(len(centres))), encoding="utf-8")
        svg_path = tmp_path / "plot.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "render", "--assignment", str(assignment),
                               "--features", str(features_csv), "--svg", str(svg_path))
        assert (code, err) == (0, "")
        assert re.findall(r'cx="([^"]*)" cy="([^"]*)"', svg_path.read_text(encoding="utf-8")) == centres

    def test_repeated_item_id_exits_2(self, tmp_path, capsys):
        features_csv = tmp_path / "f.csv"
        features_csv.write_text("x,y\n0.0,0.0\n1.0,0.0\n", encoding="utf-8")
        assignment = tmp_path / "a.csv"
        assignment.write_text("item_id,cluster_id\n0,0\n1,0\n0,1\n", encoding="utf-8")
        svg_path = tmp_path / "plot.svg"
        code, out, err = run(capsys, "render", "--assignment", str(assignment),
                             "--features", str(features_csv), "--svg", str(svg_path))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"{assignment}: line 4: item id '0' repeats line 2",
        }
        assert not svg_path.exists()

    @pytest.mark.parametrize("weight", ["1e400", "NaN"])
    def test_non_finite_weight_exits_2(self, tmp_path, capsys, weight):
        hierarchy = tmp_path / "h.json"
        hierarchy.write_text(
            '{"threshold": 0.5, "universe_size": 2, "sets": [[0], [0, 1]], '
            f'"edges": [[1, 0, {weight}]], "roots": [1]}}', encoding="utf-8"
        )
        dot = tmp_path / "t.dot"
        code, out, err = run(capsys, "render", "--hierarchy", str(hierarchy), "--dot", str(dot))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"hierarchy json: edge weight must be finite, got {float(weight)!r}",
        }
        assert not dot.exists()

    def test_dot_chain_and_size_filter(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "threshold": 0.5,
            "universe_size": 6,
            "sets": [[0], [0, 1, 2], [0, 1, 2, 3, 4, 5]],
            "edges": [[2, 1, 2.0], [1, 0, 3.0]],
            "roots": [2],
        }
        hierarchy = write_json(tmp_path / "h.json", doc)
        dot_path = tmp_path / "t.dot"
        code, _, _ = run(capsys, "render", "--hierarchy", hierarchy, "--dot", str(dot_path))
        assert code == 0
        dot = dot_path.read_text(encoding="utf-8")
        assert dot.count("->") == 1  # only the size-3 -> size-6 chain survives
        assert "(n=1)" not in dot

    @pytest.mark.parametrize("edit", [
        {"sets": [[0, 1, 2], [0], [0, 1, 2, 3, 4, 5]]},  # not canonical
        {"sets": [[0], [0], [0, 1, 2, 3, 4, 5]]},  # duplicate set
        {"sets": [[], [0, 1, 2], [0, 1, 2, 3, 4, 5]]},  # empty set
        {"edges": [[2, 1, 2.0], [1, 3, 3.0]]},  # child index past the end
        {"edges": [[-1, 0, 3.0]]},  # negative parent index
        {"roots": [3]},
        # int() of an infinite index or size overflows
        {"universe_size": 1e400},
        {"roots": [1e400]},
        {"edges": [[2, 1e400, 2.0]]},
    ])
    def test_hand_edited_hierarchy_exits_2(self, tmp_path, capsys, edit):
        doc = {
            "schema_version": 1,
            "threshold": 0.5,
            "universe_size": 6,
            "sets": [[0], [0, 1, 2], [0, 1, 2, 3, 4, 5]],
            "edges": [[2, 1, 2.0], [1, 0, 3.0]],
            "roots": [2],
        }
        hierarchy = write_json(tmp_path / "h.json", dict(doc, **edit))
        dot_path = tmp_path / "t.dot"
        code, _, err = run(capsys, "render", "--hierarchy", hierarchy, "--dot", str(dot_path))
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"
        assert not dot_path.exists()

    @pytest.mark.parametrize("edit, message", [
        ({"universe_size": 3.9}, "'universe_size' must be an integer, got 3.9"),
        ({"threshold": "0.5"}, "'threshold' must be a number, got '0.5'"),
        ({"sets": [[0], [True, 2]]}, "set member must be a number, got True"),
        ({"edges": [[1.9, 0, 1.0]]}, "edge end must be an integer, got 1.9"),
        ({"edges": [[1, 0, "1"]]}, "edge weight must be a number, got '1'"),
        ({"roots": [True]}, "root must be a number, got True"),
        ({"universe_size": 3.9, "threshold": "0.5", "sets": [[0], [True, 2]],
          "edges": [[1.9, 0, "1"]], "roots": [True]}, "must be an integer, got 3.9"),
    ], ids=["size", "threshold", "member", "edge-end", "weight", "root", "all"])
    def test_hierarchy_number_takes_a_json_number_only(self, tmp_path, capsys, edit, message):
        # each edit reads as a valid hierarchy once int() or float() has run
        doc = {"schema_version": 1, "threshold": 0.5, "universe_size": 3,
               "sets": [[0], [0, 2]], "edges": [[1, 0, 1.0]], "roots": [1]}
        hierarchy = write_json(tmp_path / "h.json", dict(doc, **edit))
        dot_path = tmp_path / "t.dot"
        code, out, err = run(capsys, "render", "--hierarchy", hierarchy, "--dot", str(dot_path))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith("hierarchy json: ")
        assert error["message"].endswith(message)
        assert not dot_path.exists()

    def test_bad_hierarchy_writes_no_svg_either(self, tmp_path, capsys):
        features, out = self.make_outputs(tmp_path, capsys)
        bad = write_json(tmp_path / "bad.json", {"sets": "nope"})
        svg_path, dot_path = tmp_path / "plot.svg", tmp_path / "t.dot"
        outputs = ("--assignment", str(out / "assignment.csv"), "--features", features,
                   "--svg", str(svg_path), "--dot", str(dot_path))
        code, stdout, _ = run(capsys, "render", "--hierarchy", bad, *outputs)
        assert (code, stdout) == (2, "")
        assert not svg_path.exists() and not dot_path.exists()
        code, stdout, _ = run(capsys, "render", "--hierarchy", str(out / "hierarchy.json"),
                              *outputs, "--min-size", "1")
        assert code == 0
        assert json.loads(stdout) == {"svg": str(svg_path), "dot": str(dot_path)}
        assert dot_path.read_bytes() == (out / "hierarchy.dot").read_bytes()
        assert svg_path.read_text(encoding="utf-8").startswith("<svg")

    @pytest.mark.parametrize("bad", ["svg", "dot"])
    @pytest.mark.parametrize("path", ["nodir/out", "existing-dir"])
    def test_bad_output_path_writes_neither_output(self, tmp_path, capsys, monkeypatch, bad, path):
        # the other output's path is fine, and is not written either
        features, out = self.make_outputs(tmp_path, capsys)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing-dir").mkdir()
        outputs = {"svg": "plot.svg", "dot": "t.dot", bad: path}
        code, stdout, err = run(capsys, "render", "--assignment", str(out / "assignment.csv"),
                                "--features", features, "--svg", outputs["svg"],
                                "--hierarchy", str(out / "hierarchy.json"), "--dot", outputs["dot"])
        assert (code, stdout) == (2, "")
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"--{bad} {path!r} is not a file path in an existing directory",
        }
        assert not (tmp_path / "plot.svg").exists() and not (tmp_path / "t.dot").exists()
        assert not any((tmp_path / "existing-dir").iterdir())

    def test_svg_of_header_only_inputs_is_empty(self, tmp_path, capsys):
        features_csv = tmp_path / "f.csv"
        features_csv.write_text("x,y\n", encoding="utf-8")
        assignment = tmp_path / "a.csv"
        assignment.write_text("item_id,cluster_id\n", encoding="utf-8")
        svg_path = tmp_path / "plot.svg"
        code, out, _ = run(capsys, "render", "--assignment", str(assignment),
                           "--features", str(features_csv), "--svg", str(svg_path))
        assert (code, json.loads(out)) == (0, {"svg": str(svg_path)})
        assert svg_path.read_text(encoding="utf-8") == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
            'viewBox="0 0 640 480">\n'
            '<rect width="640" height="480" fill="#ffffff"/>\n'
            "</svg>\n"
        )

    def test_malformed_hierarchy_exits_2(self, tmp_path, capsys):
        hierarchy = write_json(tmp_path / "h.json", {"sets": "nope"})
        code, _, _ = run(capsys, "render", "--hierarchy", hierarchy, "--dot", str(tmp_path / "t.dot"))
        assert code == 2

    def test_nothing_to_render_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "render")
        assert code == 2


XY_CSV = "x,y\n0.0,0.0\n1.0,0.0\n"
ASSIGNMENT_CSV = "item_id,cluster_id\n0,0\n1,0\n"
LABELS_CSV = "item_id,label\n0,a\n1,b\n"
HIERARCHY_JSON = json.dumps({"threshold": 0.5, "universe_size": 2, "sets": [[0, 1]],
                             "edges": [], "roots": [0]})
# two sites over two days, read at the same three times
TWO_DAY_READINGS = "site_id,timestamp,value\na,0,1\na,86400,2\na,172800,3\nb,0,2\nb,86400,1\nb,172800,3\n"
RENDER_BOTH = ["render", "--assignment", "a.csv", "--features", "f.csv", "--svg", "same.out",
               "--hierarchy", "h.json", "--dot"]
RENDER_INPUTS = {"a.csv": ASSIGNMENT_CSV, "f.csv": XY_CSV, "h.json": HIERARCHY_JSON}


def series_spec(**cluster):
    return json.dumps({"kind": "series", "rng_seed": 1, "clusters": [
        dict({"count": 2, "length": 10, "shape": {"kind": "sine", "period": 5}}, **cluster)]})


def features_config(path, criterion, **options):
    return json.dumps(dict({"dataset": {"kind": "features", "path": path},
                            "criteria": [criterion]}, **options))


@pytest.mark.parametrize("files, argv, message", [
    ({"c.json": "[]"}, ["cluster", "--config", "c.json", "--out-dir", "out"],
     "cluster config: expected a JSON object"),
    ({"c.json": "{"}, ["cluster", "--config", "c.json", "--out-dir", "out"],
     "cluster config: invalid JSON (Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1))"),
    ({"c.json": json.dumps({"dataset": {"kind": "generate",
                                        "spec": dict(POINTS_SPEC, schema_version=2)},
                            "criteria": [{"kind": "euclidean", "radius": 2.0}]})},
     ["cluster", "--config", "c.json", "--out-dir", "out"],
     "generator spec: unsupported schema_version 2"),
    ({}, ["cluster", "--config", "missing.json", "--out-dir", "out"],
     "No such file or directory"),
    ({"a.csv": "", "l.csv": LABELS_CSV}, ["eval", "--assignment", "a.csv", "--labels", "l.csv"],
     "assignment and labels cover different item ids"),
    ({"a.csv": "item_id,cluster_id\n0\n", "l.csv": LABELS_CSV},
     ["eval", "--assignment", "a.csv", "--labels", "l.csv"], "a.csv: line 2: malformed row ['0']"),
    ({"l.csv": LABELS_CSV}, ["eval", "--assignment", ".", "--labels", "l.csv"],
     "Is a directory"),
    ({"a.csv": ASSIGNMENT_CSV}, ["render", "--assignment", "a.csv", "--svg", "r.svg"],
     "svg output needs --assignment and --features"),
    ({"a.csv": ASSIGNMENT_CSV, "f.csv": "size\n1.0\n2.0\n"},
     ["render", "--assignment", "a.csv", "--features", "f.csv", "--svg", "r.svg"],
     "scatter rendering needs x,y columns"),
    ({"a.csv": "item_id,cluster_id\n0,0\n", "f.csv": XY_CSV},
     ["render", "--assignment", "a.csv", "--features", "f.csv", "--svg", "r.svg"],
     "assignment and features disagree on item count"),
    ({"a.csv": "item_id,cluster_id\n0,0\n1,x\n", "f.csv": XY_CSV},
     ["render", "--assignment", "a.csv", "--features", "f.csv", "--svg", "r.svg"],
     "a.csv: line 3: cluster id 'x' is not an integer"),
    ({"a.csv": "item_id,cluster_id\n0,0\n2,1\n", "f.csv": XY_CSV},
     ["render", "--assignment", "a.csv", "--features", "f.csv", "--svg", "r.svg"],
     "a.csv: no row for item id '1' of the features"),
    ({}, ["render", "--dot", "t.dot"], "dot output needs --hierarchy"),
    ({"s.json": series_spec(count=0)}, ["generate", "--spec", "s.json", "--out-dir", "out"],
     "cluster count must be >= 1"),
    ({"s.json": series_spec(length=1)}, ["generate", "--spec", "s.json", "--out-dir", "out"],
     "series length must be >= 2"),
    ({"s.json": series_spec(noise_sigma=-1)}, ["generate", "--spec", "s.json", "--out-dir", "out"],
     "noise sigma must be >= 0"),
    ({"f.csv": XY_CSV, "c.json": features_config("f.csv", {"kind": "size", "tolerance": 1.0})},
     ["cluster", "--config", "c.json", "--out-dir", "out"], "size criterion needs a size feature"),
    ({"f.csv": "series_0,series_1\n0.0,1.0\n1.0,0.0\n",
      "c.json": features_config("f.csv", {"kind": "pearson", "threshold": 0.5, "channel": "day"},
                                seed_func="random_neighbor")},
     ["cluster", "--config", "c.json", "--out-dir", "out"], "table has no series channel 'day'"),
    # an output that cannot be written leaves the others unwritten too
    ({"f.csv": XY_CSV, "c.json": features_config("f.csv", {"kind": "euclidean", "radius": 2.0}),
      "out/hierarchy.json": None}, ["cluster", "--config", "c.json", "--out-dir", "out"],
     "output 'out/hierarchy.json' is not a file path in an existing directory"),
    ({"s.json": json.dumps(POINTS_SPEC), "out/labels.csv": None},
     ["generate", "--spec", "s.json", "--out-dir", "out"],
     "output 'out/labels.csv' is not a file path in an existing directory"),
    ({"r.csv": TWO_DAY_READINGS, "out/features_day.csv": None},
     ["ingest", "--input", "r.csv", "--out-dir", "out", "--resolutions", "half_hour", "day"],
     "output 'out/features_day.csv' is not a file path in an existing directory"),
    (RENDER_INPUTS, [*RENDER_BOTH, "same.out"],
     "--dot 'same.out' names the same file as --svg 'same.out'"),
    (RENDER_INPUTS, [*RENDER_BOTH, "./same.out"],
     "--dot './same.out' names the same file as --svg 'same.out'"),
], ids=[
    "cluster-config-list", "cluster-config-invalid-json", "cluster-generate-spec-version",
    "cluster-config-missing", "eval-empty-csv", "eval-one-column-row",
    "eval-directory", "svg-without-features", "features-without-xy", "item-count-differs",
    "non-integer-cluster-id", "missing-item-id", "dot-without-hierarchy", "series-count-0",
    "series-length-1", "negative-noise-sigma", "size-criterion-without-sizes", "missing-series-channel",
    "cluster-output-is-a-directory", "generate-output-is-a-directory",
    "ingest-output-is-a-directory", "render-one-file-twice", "render-one-file-twice-dot-slash",
])
def test_error_path_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, files, argv, message):
    # a file given as None is made a directory
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        if text is None:
            (tmp_path / name).mkdir(parents=True)
        else:
            (tmp_path / name).write_text(text, encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert message in error["message"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("readings, options, message", [
    ("site_id,timestamp,value\na,0,1\n", [], "sites share no common time window"),
    ("site_id,timestamp,value\nX,1000,1\nX,101000,1\nY,0,1\nY,100000,1\n",
     ["--resolutions", "day"], "every site was dropped during resampling"),
], ids=["one-reading", "every-site-dropped"])
def test_ingest_bad_data_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                    readings, options, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_text(readings, encoding="utf-8")
    code, out, err = run(capsys, "ingest", "--input", "r.csv", "--out-dir", "out", *options)
    assert (code, out) == (3, "")
    assert "Traceback" not in err
    # "dropping site ..." warnings come first
    assert json.loads(err.splitlines()[-1]) == {"error": "DataError", "message": message}
    assert sorted(tmp_path.iterdir()) == [tmp_path / "r.csv"]


# three sites of 48 half-hourly readings from 2021-01-01 in epoch milliseconds
EPOCH_MS_READINGS = "site_id,timestamp,value\n" + "".join(
    f"{site},{1609459200000 + k * 1800000},{1.0 + k * (i + 1) % 7}\n"
    for i, site in enumerate("abc") for k in range(48)
)


def far_readings(start, mid, end):
    """Two sites that read 1, 2 and 3 at the timestamps ``start``, ``mid`` and ``end``."""
    return "site_id,timestamp,value\n" + "".join(
        f"{site},{t!r},{v}\n" for site in "ab" for t, v in zip((start, mid, end), (1, 2, 3)))


class TestWindowTheResolutionCannotCut:
    """A common window that a resolution's buckets cannot cut exits 3 with
    a DataError naming both, and writes nothing."""

    CASES = [
        (EPOCH_MS_READINGS, None, "month", [1609459200000.0, 1609543800000.0]),
        (far_readings(-1e308, 0.0, 1e308), ["month"], "month", [-1e308, 1e308]),
        (far_readings(-1e308, 0.0, 1e308), ["week"], "week", [-1e308, 1e308]),
        (far_readings(0.0, 1e300, 2e300), ["day"], "day", [0.0, 2e300]),
    ]
    IDS = ["epoch-ms-default-resolutions", "month-1e308", "week-1e308", "day-2e300"]

    def check_exit_3(self, capsys, tmp_path, argv, resolution, window):
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "Traceback" not in err
        error = json.loads(err)
        assert error["error"] == "DataError"
        assert error["message"].startswith(f"resolution {resolution!r}: the window {window} cannot be cut")
        assert error["message"].endswith("; timestamps are read as seconds since 1970")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("readings, resolutions, resolution, window", CASES, ids=IDS)
    def test_ingest(self, tmp_path, capsys, monkeypatch, readings, resolutions, resolution, window):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.csv").write_text(readings, encoding="utf-8")
        options = ["--resolutions", *resolutions] if resolutions else []
        argv = ["ingest", "--input", "r.csv", "--out-dir", "out", *options]
        self.check_exit_3(capsys, tmp_path, argv, resolution, window)

    @pytest.mark.parametrize("readings, resolutions, resolution, window", CASES, ids=IDS)
    def test_cluster(self, tmp_path, capsys, monkeypatch, readings, resolutions, resolution, window):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.csv").write_text(readings, encoding="utf-8")
        dataset = {"kind": "raw_series", "path": "r.csv", "rho": 0.5}
        if resolutions:
            dataset["resolutions"] = resolutions
        write_json(tmp_path / "c.json", {"dataset": dataset, "seed_func": "random_neighbor"})
        argv = ["cluster", "--config", "c.json", "--out-dir", "out"]
        self.check_exit_3(capsys, tmp_path, argv, resolution, window)

    def test_epoch_ms_file_clusters_at_day_steps(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.csv").write_text(EPOCH_MS_READINGS, encoding="utf-8")
        write_json(tmp_path / "c.json", {
            "dataset": {"kind": "raw_series", "path": "r.csv", "rho": 0.5, "resolutions": ["day"]},
            "seed_func": "random_neighbor",
        })
        code, _, _ = run(capsys, "cluster", "--config", "c.json", "--out-dir", "out")
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "assignment.csv", "hierarchy.dot", "hierarchy.json"]


def write_pinned_readings(path):
    """Daily readings of six sites over days 1-119, three with a weekly and
    three with an 11-day rhythm, plus two sites that ingestion drops: "late"
    (days 100-119) shrinks the common window, and "gap" (day 0, then days
    3-119) leaves the window's first day bucket empty."""
    rows = ["site_id,timestamp,value"]
    for k in range(6):
        period = 7 if k < 3 else 11
        rows += [
            f"s{k},{d * 86400},"
            f"{1.0 + 0.3 * (d % period) + 0.01 * (d * (k + 2) % 9) + 0.001 * d * (k + 1)}"
            for d in range(1, 120)
        ]
    rows += [f"late,{d * 86400},{1.0 + d % 7}" for d in range(100, 120)]
    rows += [f"gap,{d * 86400},{1.0 + d % 7}" for d in [0, *range(3, 120)]]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def sha256_of(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


class TestIngestCommand:
    def test_outputs_pinned(self, tmp_path, capsys):
        raw = write_pinned_readings(tmp_path / "raw.csv")
        code, out, _ = run(capsys, "ingest", "--input", raw, "--out-dir", str(tmp_path / "res"),
                           "--resolutions", "day", "week", "month")
        assert code == 0
        assert json.loads(out)["dropped"] == [
            ["late", "shrinks the common window"],
            ["gap", "site 'gap' leaves a leading or trailing bucket empty"],
        ]
        assert sha256_of(tmp_path / "res", (
            "sites.csv", "features_day.csv", "features_week.csv", "features_month.csv",
        )) == {
            "sites.csv": "61c737eb3d9852a12f9ab3908e3020ee0d61462c49c63101faa5a4250b2f661c",
            "features_day.csv": "3e719a76d13a21b99ce3cbc9b08e11d801edbc72267948c456d3bcc03988d1af",
            "features_week.csv": "c113a8cc65157f7750eeeeee76fb6b663faaafa9aa36d68b55943f56caaa4c09",
            "features_month.csv": "bd290e280333a18b1560957c8717bc29d6cc2318b51d7b683231ae8e8e9cc851",
        }

    def test_resample_to_csvs(self, tmp_path, capsys):
        rows = ["site_id,timestamp,value"]
        for site in ("a", "b"):
            for d in range(70):
                rows.append(f"{site},{d * 86400},{1.0 + (d % 7)}")
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "ingest", "--input", str(raw),
                           "--out-dir", str(tmp_path / "res"),
                           "--resolutions", "day", "week")
        assert code == 0
        doc = json.loads(out)
        assert doc["sites"] == 2
        assert (tmp_path / "res" / "features_day.csv").exists()
        assert (tmp_path / "res" / "features_week.csv").exists()
        assert (tmp_path / "res" / "sites.csv").exists()

    def test_pairwise_disjoint_sites(self, tmp_path, capsys):
        # A covers days 0-10, B days 100-110, C days 200-210: no two overlap
        rows = ["site_id,timestamp,value"]
        for site, first in (("A", 0), ("B", 100), ("C", 200)):
            rows += [f"{site},{d * 86400},{1.0 + d % 3}" for d in range(first, first + 11)]
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "ingest", "--input", str(raw), "--out-dir", str(tmp_path / "res"),
                           "--resolutions", "day")
        assert code == 0
        doc = json.loads(out)
        assert doc["sites"] == 1
        assert doc["dropped"] == [["A", "shrinks the common window"], ["B", "shrinks the common window"]]
        assert doc["window"] == [200 * 86400.0, 210 * 86400.0]

    def test_single_bucket_window_exits_2_writing_nothing(self, tmp_path, capsys):
        # A [0,100], B [1000,1100], C [2000,2100]: C's 100 s window holds one half-hour bucket
        raw = tmp_path / "raw.csv"
        raw.write_text("site_id,timestamp,value\nA,0,1\nA,100,2\nB,1000,1\nB,1100,2\nC,2000,1\nC,2100,2\n", encoding="utf-8")
        code, out, err = run(capsys, "ingest", "--input", str(raw), "--out-dir", str(tmp_path / "res"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "resolution 'half_hour': the common window [2000.0, 2100.0] holds 1 bucket, "
                       "and at least 2 are needed",
        }
        assert not (tmp_path / "res").exists()

    def test_empty_input_exits_3(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("site_id,timestamp,value\n", encoding="utf-8")
        code, _, _ = run(capsys, "ingest", "--input", str(raw), "--out-dir", str(tmp_path / "res"))
        assert code == 3

    @pytest.mark.parametrize("option, value", [
        ("--resolutions", "hour"),
        ("--aggregate", "median"),
    ])
    def test_bad_option_exits_2_before_reading(self, tmp_path, capsys, monkeypatch, option, value):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "ingest", "--input", "missing.csv", "--out-dir", "o",
                             option, value)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert repr(value) in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_repeated_resolution_exits_2_before_reading(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "ingest", "--input", "missing.csv", "--out-dir", "o",
                             "--resolutions", "day", "day")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "ingest: 'resolutions' names a resolution twice; got ['day', 'day']",
        }
        assert list(tmp_path.iterdir()) == []

    def test_files_are_named_as_out_dir_is_given(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.csv").write_text(TWO_DAY_READINGS, encoding="utf-8")
        code, out, _ = run(capsys, "ingest", "--input", "r.csv", "--out-dir", "./x",
                           "--resolutions", "half_hour", "day")
        assert code == 0
        assert out == (
            '{"buckets": {"day": 2, "half_hour": 96}, "dropped": [], '
            '"files": ["x/sites.csv", "x/features_half_hour.csv", "x/features_day.csv"], '
            '"sites": 2, "window": [0.0, 172800.0]}\n'
        )

    def test_all_resolutions_by_default(self, tmp_path, capsys):
        raw = write_pinned_readings(tmp_path / "raw.csv")
        code, out, _ = run(capsys, "ingest", "--input", raw, "--out-dir", str(tmp_path / "res"))
        assert code == 0
        assert list(json.loads(out)["buckets"]) == ["day", "half_hour", "month", "week"]
        assert sorted(path.name for path in (tmp_path / "res").iterdir()) == [
            "features_day.csv", "features_half_hour.csv", "features_month.csv",
            "features_week.csv", "sites.csv",
        ]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", POINTS_SPEC)
        run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "data"))
        features = str(tmp_path / "data" / "features.csv")
        blobs = {}
        for tag in ("one", "two"):
            out_dir = tmp_path / tag
            config = write_json(tmp_path / f"cfg_{tag}.json", cluster_config(features, str(out_dir)))
            assert run(capsys, "cluster", "--config", config)[0] == 0
            svg = tmp_path / f"{tag}.svg"
            assert run(capsys, "render", "--assignment", str(out_dir / "assignment.csv"),
                       "--features", features, "--svg", str(svg))[0] == 0
            blobs[tag] = tuple(
                (out_dir / name).read_bytes()
                for name in ("assignment.csv", "hierarchy.json", "hierarchy.dot")
            ) + (svg.read_bytes(),)
        assert blobs["one"] == blobs["two"]

    def test_closest_walk_outputs_pinned(self, tmp_path, capsys):
        """The shipped multi-criteria points config with two closest-node
        steps per seed; no benchmark workload walks with d > 0."""
        doc = json.loads((CONFIG_DIR / "points_multicriteria.json").read_text(encoding="utf-8"))
        doc["d"] = 2
        out_dir = tmp_path / "out"
        config = write_json(tmp_path / "cfg.json", doc)
        assert run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir))[0] == 0
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("assignment.csv", "hierarchy.json", "hierarchy.dot")
        }
        assert digests == {
            "assignment.csv": "e63fbda6dd99e6ab41cd84fdd9c6fadc956cdeb182767d0f2f980dddbf65af61",
            "hierarchy.json": "a0fe3ec43c34e8a1ab2da11ed47206b7df81fcfa1b2cabc0083abb7797101d64",
            "hierarchy.dot": "a7513cc3b11b54944d1e82e66d991ebd0a305f660ac9d5b69bbc0228763bf6ff",
        }

    def test_raw_series_outputs_pinned(self, tmp_path, capsys):
        """Two resolutions with a per-resolution ``rho`` and two dropped sites."""
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "raw_series", "path": write_pinned_readings(tmp_path / "raw.csv"),
                        "resolutions": ["day", "week"], "aggregate": "sum",
                        "rho": {"day": 0.5, "week": 0.4}},
            "seed_func": "random_neighbor", "d": 1, "th_qh": 0.5, "rng_seed": 3,
        })
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir))
        assert code == 0
        assert json.loads(out) == {"clusters": 2, "outliers": 2, "roots": 1, "sets": 3}
        assert sha256_of(out_dir, ("assignment.csv", "hierarchy.json", "hierarchy.dot")) == {
            "assignment.csv": "11ee355c98b9b33eb6ab79aacc1a501cf88467a97a280e4ee581ba1cff5b28c9",
            "hierarchy.json": "abb2969e8151cfd5112c919c440602c225b32433933d259acac008ad01e8c871",
            "hierarchy.dot": "bfb83c58ab2daf045d3afa8e5dfec447c5fe36a2dc5f2db5f3be8c1adae00552",
        }

    def test_filter_mode_outputs_pinned(self, tmp_path, capsys):
        """Filter mode on points-dense input 8: one witness in both balls
        at once splits it into 20 clusters, where prefilter mode finds 8."""
        spec = write_json(tmp_path / "spec.json", points_dense_spec(8))
        assert run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "data"))[0] == 0
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "features", "path": str(tmp_path / "data" / "features.csv")},
            "criteria": [{"kind": "euclidean", "radius": 1.0}, {"kind": "size", "tolerance": 0.5}],
            "mode": "filter", "d": 0, "seed_func": "closest_node", "th_qh": 0.5,
        })
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir))
        assert code == 0
        assert json.loads(out) == {"clusters": 20, "outliers": 50, "roots": 70, "sets": 800}
        assert sha256_of(out_dir, ("assignment.csv", "hierarchy.json", "hierarchy.dot")) == {
            "assignment.csv": "6c8ad21f60208f922d29fb05e35b2b043fd731b3f4197dfea519d499c888240c",
            "hierarchy.json": "2b2e5e2183bc3719a8ffa5f9475b872a7da280dc290a0836a43ffbbb3bedcefd",
            "hierarchy.dot": "649524053d6c0c4db96c1c7e6511877430462cd496abffade847c6d1b602e013",
        }

    def test_filter_mode_random_walk_outputs_pinned(self, tmp_path, capsys):
        """The shipped points config in filter mode with two random steps per
        seed: each step draws from the union of the item's balls, not from
        their intersection, which would give 4 clusters, 1 outlier, 31 sets."""
        doc = json.loads((CONFIG_DIR / "points_multicriteria.json").read_text(encoding="utf-8"))
        doc.update(mode="filter", seed_func="random_neighbor", d=2, rng_seed=5)
        out_dir = tmp_path / "out"
        config = write_json(tmp_path / "cfg.json", doc)
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir))
        assert code == 0
        assert json.loads(out) == {"clusters": 3, "outliers": 0, "roots": 3, "sets": 39}
        assert sha256_of(out_dir, ("assignment.csv", "hierarchy.json", "hierarchy.dot")) == {
            "assignment.csv": "670c5fa019f1224364369ce6a64a0efe9f0e415c9162d0a1a66b133da2861111",
            "hierarchy.json": "9cf1bf6c7cc782f56ce5a8e12b2491033e1e7108d2728a338a041c00719837bc",
            "hierarchy.dot": "b8212a55b4c9d9c67c24e052b8491e7d07bc95fd801e0dc93dfcc8c27801613a",
        }

    def test_random_tie_break_outputs_pinned(self, tmp_path, capsys):
        """The shipped series config with a random pick among equally large
        equivalent sets, seeded by its rng_seed (11): hierarchy.json differs
        from the lowest-index one."""
        doc = json.loads((CONFIG_DIR / "series_benchmark.json").read_text(encoding="utf-8"))
        doc["equivalence_tie_break"] = "random"
        out_dir = tmp_path / "out"
        config = write_json(tmp_path / "cfg.json", doc)
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir))
        assert code == 0
        assert json.loads(out) == {"clusters": 6, "outliers": 0, "roots": 6, "sets": 149}
        assert sha256_of(out_dir, ("assignment.csv", "hierarchy.json", "hierarchy.dot")) == {
            "assignment.csv": "172bfedef6275ed0929bbb2fce8644eaa10633063d215a1b0f022cf486f83acd",
            "hierarchy.json": "ac5a5e3bfa7b2aa9dd9cb7d90229312dfab2365bda3f732c062124ce1f41e8d6",
            "hierarchy.dot": "51c2eca9b5ff45a818a145c1746d2cbf19a4b51c41c245b7a0c4f2f633a80fee",
        }

    def test_rng_seed_seeds_the_random_tie_break(self, tmp_path, capsys):
        """Points-dense input 8 with a random tie-break: the config's
        rng_seed picks among equally large equivalent sets, so seeds 0 and 7
        keep the same clusters but write different hierarchies."""
        spec = write_json(tmp_path / "spec.json", points_dense_spec(8))
        assert run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "data"))[0] == 0
        digests = {}
        for seed in (0, 7):
            config = write_json(tmp_path / f"cfg{seed}.json", {
                "dataset": {"kind": "features", "path": str(tmp_path / "data" / "features.csv")},
                "criteria": [{"kind": "euclidean", "radius": 1.0},
                             {"kind": "size", "tolerance": 0.5}],
                "d": 0, "th_qh": 0.5, "equivalence_tie_break": "random", "rng_seed": seed,
            })
            out_dir = tmp_path / f"out{seed}"
            code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir))
            assert code == 0
            assert json.loads(out) == {"clusters": 8, "outliers": 35, "roots": 43, "sets": 816}
            digests[seed] = sha256_of(out_dir, ("hierarchy.json",))["hierarchy.json"]
        assert digests[0].startswith("48d630ea")
        assert digests[7].startswith("8093de53")

    @pytest.mark.parametrize("name, digests", [
        ("points_multicriteria", {
            "assignment.csv": "f48d349c3553e8225e91a2e3ff74ea7aa90eb72038e431301c54c196aeb4bbc0",
            "hierarchy.json": "75915fd416bdaea8510dbb4915258292c204a79485dc8f7575740411f2ab3d4a",
            "hierarchy.dot": "d02147fbf11e2cbdd46846bc5f341c8db405b4d5269e6c7492cd7253153e7f7c",
        }),
        ("series_benchmark", {
            "assignment.csv": "172bfedef6275ed0929bbb2fce8644eaa10633063d215a1b0f022cf486f83acd",
            "hierarchy.json": "902ecedf4c2cce6c63b5d2413d125aac37e69f4fc2d2a2a0176deb82edf22909",
            "hierarchy.dot": "51c2eca9b5ff45a818a145c1746d2cbf19a4b51c41c245b7a0c4f2f633a80fee",
        }),
    ])
    def test_shipped_config_outputs_pinned(self, tmp_path, capsys, name, digests):
        out_dir = tmp_path / "out"
        config = str(CONFIG_DIR / f"{name}.json")
        assert run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir))[0] == 0
        assert {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in digests
        } == digests

    @pytest.mark.parametrize("header, dataset, criteria", [
        ("x,y,size", {"kind": "features"}, [{"kind": "euclidean", "radius": 2.0}]),
        ("site_id,timestamp,value", {"kind": "raw_series", "rho": 0.5}, []),
    ], ids=["features", "raw_series"])
    def test_empty_dataset_outputs_pinned(self, tmp_path, capsys, header, dataset, criteria):
        data = tmp_path / "data.csv"
        data.write_text(header + "\n", encoding="utf-8")
        doc = {"dataset": dict(dataset, path=str(data)), "criteria": criteria,
               "seed_func": "random_neighbor", "th_qh": 0.75}
        out_dir = tmp_path / "out"
        config = write_json(tmp_path / "cfg.json", doc)
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir))
        assert code == 0
        assert out == '{"clusters": 0, "outliers": 0, "roots": 0, "sets": 0}\n'
        assert (out_dir / "assignment.csv").read_bytes() == b"item_id,cluster_id\r\n"
        assert (out_dir / "hierarchy.json").read_bytes() == (
            b'{\n  "edges": [],\n  "roots": [],\n  "schema_version": 1,\n  "sets": [],\n'
            b'  "threshold": 0.75,\n  "universe_size": 0\n}\n'
        )
        assert (out_dir / "hierarchy.dot").read_bytes() == (
            b"digraph quasihierarchy {\n  rankdir=TB;\n}\n"
        )

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", "x,Y\n0,0\n1,1\n", "x\n0\n", "a,b\n\n,\n"],
                             ids=["a-b", "x-Y", "x-alone", "empty-fields"])
    def test_rows_under_a_header_without_features_exit_2(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text, encoding="utf-8")
        doc = {"dataset": {"kind": "features", "path": str(data)},
               "criteria": [{"kind": "euclidean", "radius": 2.0}], "seed_func": "random_neighbor", "th_qh": 0.75}
        out_dir = tmp_path / "out"
        config = write_json(tmp_path / "cfg.json", doc)
        assert run(capsys, "cluster", "--config", config, "--out-dir", str(out_dir)) == (2, "", json.dumps({
            "error": "ParseError",
            "message": f"{data}: line 1: header names no feature column (x and y, size, series_*)",
        }) + "\n")
        assert not out_dir.exists()

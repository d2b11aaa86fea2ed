import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from pretopo.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
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
        bad.write_text("{not json")
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
    ], ids=["groups-strings", "groups-object", "center-number", "clusters-numbers", "size_range-one"])
    def test_spec_shape_error_names_the_field(self, tmp_path, capsys, edit, message):
        spec = write_json(tmp_path / "spec.json", dict(POINTS_SPEC, **edit))
        code, out, err = run(capsys, "generate", "--spec", spec, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "cluster"])
    @pytest.mark.parametrize("seed", ["x", None, float("inf"), 1.9, True])
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
        assert json.loads(err) == {
            "error": "ConfigError", "message": f"waveform period must be > 0, got {float(period)}",
        }
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
        if name == "points-dense":  # 4 groups of 150 points
            groups = [((0, 0), (1, 2)), ((10, 0), (8, 10)), ((30, 0), (8, 10)), ((10, 25), (4, 5))]
            doc = {"kind": "points", "rng_seed": seed, "groups": [
                {"count": 150, "center": list(c), "dispersion": 2.0, "size_range": list(r)}
                for c, r in groups]}
        else:
            doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())["dataset"]["spec"]
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
            "error": "ConfigError", "message": "PointGroup center must be finite, got (nan, 0.0)",
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
        empty.write_text("x,y,size\n")
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
    ])
    def test_bad_option_exits_2_before_any_output(
        self, tmp_path, capsys, features_text, key, value
    ):
        features = tmp_path / "f.csv"
        features.write_text(features_text)
        doc = cluster_config(str(features), str(tmp_path / "out"))
        doc[key] = value
        config = write_json(tmp_path / "cfg.json", doc)
        code, out, err = run(capsys, "cluster", "--config", config)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("features_text", [
        "x,y,size\n", "x,y,size\n0.0,nan,1.0\n"
    ], ids=["empty", "non-finite"])
    def test_no_criteria_random_walk_exits_2_before_any_output(
        self, tmp_path, capsys, features_text
    ):
        features = tmp_path / "f.csv"
        features.write_text(features_text)
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
        features.write_text(text)
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
        assert err["message"].startswith("line 3:")

    @pytest.mark.parametrize("column", ["series_a", "series_", "series_1.5"])
    def test_non_integer_series_header_exits_2(self, tmp_path, capsys, column):
        code, err = self.features_run(
            tmp_path, capsys, f"x,y,{column}\n0.0,0.0,1.0\n1.0,1.0,2.0\n"
        )
        assert code == 2
        assert err["error"] == "ParseError"
        assert err["message"].startswith("line 1:")
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

    def test_raw_series_dataset(self, tmp_path, capsys):
        # two sites share a weekly rhythm, the third follows its own beat
        rows = ["site_id,timestamp,value"]
        for site, pattern in (("a", 7), ("b", 7), ("c", 11)):
            for d in range(400):
                rows.append(f"{site},{d * 86400},{1.0 + 0.3 * (d % pattern)}")
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(rows) + "\n")
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
        text = (tmp_path / "o" / "assignment.csv").read_text()
        assert "a,0" in text and "b,0" in text and "c,-1" in text


class TestNonFiniteReadings:
    @pytest.mark.parametrize("reading", ["a,86400,nan", "a,86400,inf", "a,nan,1.0"])
    def test_ingest_exits_3(self, tmp_path, capsys, reading):
        raw = tmp_path / "raw.csv"
        raw.write_text(f"site_id,timestamp,value\na,0,1.0\n{reading}\nb,0,1.0\nb,86400,2.0\n")
        code, out, err = run(capsys, "ingest", "--input", str(raw), "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert out == ""
        assert json.loads(err) == {
            "error": "DataError",
            "message": f"line 3: non-finite reading (timestamp {reading.split(',')[1]!r}, "
                       f"value {reading.split(',')[2]!r})",
        }

    def test_raw_series_cluster_exits_3(self, tmp_path, capsys):
        rows = ["site_id,timestamp,value"]
        for site in ("a", "b"):
            rows += [f"{site},{d * 86400},{1.0 + d % 7}" for d in range(60)]
        rows[10] = "a,777600,nan"
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join(rows) + "\n")
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "raw_series", "path": str(raw),
                        "resolutions": ["day", "week"], "rho": 0.5},
            "seed_func": "random_neighbor",
        })
        code, out, err = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert out == ""
        assert json.loads(err)["message"].startswith("line 11: non-finite reading")


class TestOversizedCsvField:
    """A field longer than ``csv.field_size_limit()`` is a parse error."""

    LONG = "s" * 200_000

    def write_raw(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("site_id,timestamp,value\n" + self.LONG + ",0,1.0\n")
        return raw

    def test_ingest_exits_2(self, tmp_path, capsys):
        raw = self.write_raw(tmp_path)
        code, out, err = run(capsys, "ingest", "--input", str(raw), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ParseError",
            "message": f"line 2: {raw}: field larger than field limit (131072)",
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
            "message": f"line {line}: {path}: field larger than field limit (131072)",
        }

    def test_features_cluster_exits_2(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        features.write_text(f"x,y,size\n0.0,0.0,1.0\n1.0,0.0,{self.LONG}\n")
        config = write_json(tmp_path / "cfg.json", cluster_config(str(features), str(tmp_path / "o")))
        self.assert_parse_error(run(capsys, "cluster", "--config", config), 3, features)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("which", ["assignment", "labels"])
    def test_eval_exits_2(self, tmp_path, capsys, which):
        paths = {}
        for name in ("assignment", "labels"):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("item_id,cluster_id\n0,0\n1,0\n")
        paths[which].write_text(f"item_id,cluster_id\n{self.LONG},0\n")
        result = run(capsys, "eval", "--assignment", str(paths["assignment"]),
                     "--labels", str(paths["labels"]))
        self.assert_parse_error(result, 2, paths[which])

    @pytest.mark.parametrize("which", ["assignment", "features"])
    def test_render_svg_exits_2(self, tmp_path, capsys, which):
        paths = {"assignment": tmp_path / "a.csv", "features": tmp_path / "f.csv"}
        paths["assignment"].write_text("item_id,cluster_id\n0,0\n")
        paths["features"].write_text("x,y\n0.0,0.0\n")
        paths[which].write_text(paths[which].read_text() + self.LONG + "\n")
        svg = tmp_path / "plot.svg"
        result = run(capsys, "render", "--assignment", str(paths["assignment"]),
                     "--features", str(paths["features"]), "--svg", str(svg))
        self.assert_parse_error(result, 3, paths[which])
        assert not svg.exists()


class TestNonUtf8Input:
    """Bytes that are not UTF-8 are a parse error in every file a command reads."""

    def write_inputs(self, work):
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
            (work / name).write_text(text)

    @pytest.mark.parametrize("bad, argv", [
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
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_exits_2(self, tmp_path, capsys, monkeypatch, bad, argv):
        for case in ("good", "bad"):
            work = tmp_path / case
            work.mkdir()
            self.write_inputs(work)
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
    ], ids=lambda options: json.dumps(options))
    def test_bad_option_exits_2_before_readings_are_read(self, tmp_path, capsys, options):
        # the readings would exit 3 if they were read
        raw = tmp_path / "raw.csv"
        raw.write_text("site_id,timestamp,value\na,0,nan\n")
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
        raw.write_text("site_id,timestamp,value\n" + readings)
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
        raw.write_text("\n".join(rows) + "\n")
        config = write_json(tmp_path / "cfg.json", {
            "dataset": {"kind": "raw_series", "path": str(raw), "resolutions": ["day", "week"],
                        "rho": {"day": 0.5, "week": "0.5", "month": "unused"}},
            "seed_func": "random_neighbor",
        })
        code, out, _ = run(capsys, "cluster", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 0
        assert json.loads(out)["sets"] > 0


class TestEval:
    def test_identical_files_ari_one(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("item_id,cluster_id\n0,0\n1,0\n2,1\n3,1\n")
        b = tmp_path / "b.csv"
        b.write_text("item_id,label\n0,0\n1,0\n2,1\n3,1\n")
        code, out, _ = run(capsys, "eval", "--assignment", str(a), "--labels", str(b))
        assert code == 0
        doc = json.loads(out)
        assert doc["ari"] == 1.0
        assert doc["n_items"] == 4

    def test_disjoint_two_item_labelings(self, tmp_path, capsys):
        # oracle value: one pair, together in truth, apart in the found
        # labels: a=0,b=1,c=0,d=0 makes the adjusted index 0
        a = tmp_path / "a.csv"
        a.write_text("item_id,cluster_id\nx,0\ny,1\n")
        b = tmp_path / "b.csv"
        b.write_text("item_id,label\nx,5\ny,5\n")
        code, out, _ = run(capsys, "eval", "--assignment", str(a), "--labels", str(b))
        assert code == 0
        assert json.loads(out)["ari"] == 0.0

    @pytest.mark.parametrize("repeated", ["assignment", "labels"])
    def test_repeated_item_id_exits_2(self, tmp_path, capsys, repeated):
        a = tmp_path / "a.csv"
        a.write_text("item_id,cluster_id\n0,1\n1,1\n")
        b = tmp_path / "b.csv"
        b.write_text("item_id,label\n0,0\n1,1\n")
        (a if repeated == "assignment" else b).write_text("item_id,x\n0,1\n1,1\n0,2\n")
        code, out, err = run(capsys, "eval", "--assignment", str(a), "--labels", str(b))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"{repeated} csv: line 4: item id '0' repeats line 2",
        }

    def test_mismatched_ids_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("item_id,cluster_id\n0,0\n1,0\n")
        b = tmp_path / "b.csv"
        b.write_text("item_id,label\n0,0\n2,0\n")
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
        svg = svg_path.read_text()
        fills = {part.split('"')[0] for part in svg.split('fill="')[1:]}
        fills.discard("#ffffff")
        assert len(fills) == 2

    def test_outliers_black(self, tmp_path, capsys):
        features_csv = tmp_path / "f.csv"
        features_csv.write_text("x,y\n0.0,0.0\n1.0,0.0\n50.0,0.0\n")
        assignment = tmp_path / "a.csv"
        assignment.write_text("item_id,cluster_id\n0,0\n1,0\n2,-1\n")
        svg_path = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "render", "--assignment", str(assignment),
                         "--features", str(features_csv), "--svg", str(svg_path))
        assert code == 0
        assert "#000000" in svg_path.read_text()

    def test_repeated_item_id_exits_2(self, tmp_path, capsys):
        features_csv = tmp_path / "f.csv"
        features_csv.write_text("x,y\n0.0,0.0\n1.0,0.0\n")
        assignment = tmp_path / "a.csv"
        assignment.write_text("item_id,cluster_id\n0,0\n1,0\n0,1\n")
        svg_path = tmp_path / "plot.svg"
        code, out, err = run(capsys, "render", "--assignment", str(assignment),
                             "--features", str(features_csv), "--svg", str(svg_path))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "assignment csv: line 4: item id '0' repeats line 2",
        }
        assert not svg_path.exists()

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
        dot = dot_path.read_text()
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

    def test_malformed_hierarchy_exits_2(self, tmp_path, capsys):
        hierarchy = write_json(tmp_path / "h.json", {"sets": "nope"})
        code, _, _ = run(capsys, "render", "--hierarchy", hierarchy, "--dot", str(tmp_path / "t.dot"))
        assert code == 2

    def test_nothing_to_render_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "render")
        assert code == 2


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
    path.write_text("\n".join(rows) + "\n")
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
        raw.write_text("\n".join(rows) + "\n")
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
        raw.write_text("\n".join(rows) + "\n")
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
        raw.write_text("site_id,timestamp,value\nA,0,1\nA,100,2\nB,1000,1\nB,1100,2\nC,2000,1\nC,2100,2\n")
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
        raw.write_text("site_id,timestamp,value\n")
        code, _, _ = run(capsys, "ingest", "--input", str(raw), "--out-dir", str(tmp_path / "res"))
        assert code == 3


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
        doc = json.loads((CONFIG_DIR / "points_multicriteria.json").read_text())
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
        data.write_text(header + "\n")
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

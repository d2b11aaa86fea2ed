"""What the package imports at run time: numpy is its only third-party
module, and a ``cluster`` run loads only the layers it runs."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import pretopo
for info in pkgutil.walk_packages(pretopo.__path__, "pretopo."):
    importlib.import_module(info.name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_runtime_imports_are_stdlib_or_numpy():
    # a fresh interpreter, so modules the test runner loaded do not hide an import
    result = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=SRC, capture_output=True, text=True, check=True, encoding="utf-8",
    )
    imported = json.loads(result.stdout)
    assert "pretopo" in imported and "numpy" in imported
    assert [
        name for name in imported
        if name not in sys.stdlib_module_names and name not in ("numpy", "pretopo")
    ] == []


CLUSTER_PROBE = """
import json, sys
from pretopo import cli
code = cli.main(["cluster", "--config", sys.argv[1], "--out-dir", sys.argv[2]])
modules = ("pretopo.datagen", "pretopo.ingest", "logging", "statistics")
print(json.dumps([code, [name for name in modules if name in sys.modules]]))
"""


def test_cluster_loads_only_the_layers_it_runs(tmp_path):
    # a fresh interpreter per config, so each sees only the imports its own run makes
    features = tmp_path / "features.csv"
    features.write_text("x,y,size\n0.0,0.0,1.0\n1.0,0.0,1.0\n9.0,0.0,1.0\n", encoding="utf-8")
    raw = tmp_path / "raw.csv"
    raw.write_text("site_id,timestamp,value\n" + "".join(
        f"{site},{day * 86400},{1.0 + day * k % 5}\n"
        for k, site in enumerate("abc", start=1) for day in range(6)
    ), encoding="utf-8")
    datasets = {
        "features": ({"kind": "features", "path": str(features)},
                     [{"kind": "euclidean", "radius": 2.0}]),
        "raw_series": ({"kind": "raw_series", "path": str(raw), "resolutions": ["day"],
                        "rho": 0.5}, []),
    }
    loaded = {}
    for kind, (dataset, criteria) in datasets.items():
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps({
            "dataset": dataset, "criteria": criteria, "seed_func": "random_neighbor",
        }), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-c", CLUSTER_PROBE, str(config), str(tmp_path / kind)],
            cwd=SRC, capture_output=True, text=True, check=True, encoding="utf-8",
        )
        code, loaded[kind] = json.loads(result.stdout.splitlines()[-1])
        assert code == 0, result.stderr
    assert loaded["features"] == []
    assert loaded["raw_series"] == ["pretopo.ingest"]

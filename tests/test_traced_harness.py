"""The benchmark's traced run (``perfbench/traced.py``) calls the library's
phases one by one instead of going through ``pretopo cluster``.  These tests
run it as the benchmark does, in a child process, and check that it still
imports and writes the same three outputs as the CLI."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pretopo.cli import main

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("assignment.csv", "hierarchy.json", "hierarchy.dot")


def features_config(tmp_path):
    """The shipped points config, read from the features csv its spec writes."""
    doc = json.loads((ROOT / "configs" / "points_multicriteria.json").read_text(encoding="utf-8"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc["dataset"]["spec"]), encoding="utf-8")
    assert main(["generate", "--spec", str(spec), "--out-dir", str(tmp_path / "data")]) == 0
    doc["dataset"] = {"kind": "features", "path": str(tmp_path / "data" / "features.csv")}
    return doc


def raw_series_config(tmp_path):
    """Five sites over four days of half-hour readings: two share a daily
    shape, the rest cycle at their own rates; all drift upwards."""
    rows = ["site_id,timestamp,value"]
    for k in range(5):
        for step in range(4 * 48):
            hour = step % 48 / 2
            value = 2.0 + math.sin(hour / 24 * 2 * math.pi * (1 if k < 2 else k)) + 0.01 * (k + 1) * step
            rows.append(f"s{k},{1609459200 + 1800 * step},{value:.4f}")
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {
        "dataset": {
            "kind": "raw_series",
            "path": str(raw),
            "resolutions": ["half_hour", "day"],
            "rho": 0.5,
        },
        "seed_func": "random_neighbor",
        "d": 1,
        "th_qh": 0.5,
        "rng_seed": 3,
    }


@pytest.mark.parametrize("make_config", [features_config, raw_series_config],
                         ids=["features", "raw_series"])
def test_traced_run_writes_the_cli_outputs(tmp_path, capsys, make_config):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(make_config(tmp_path)), encoding="utf-8")
    assert main(["cluster", "--config", str(config), "--out-dir", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(config),
         str(tmp_path / "traced"), str(trace)],
        check=True, capture_output=True, timeout=60,
    )
    for name in OUTPUTS:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
    spans = {span["name"] for span in json.loads(trace.read_text(encoding="utf-8"))["spans"]}
    assert {"cli.cluster", "hierarchy.closed", "hierarchy.flatten"} <= spans

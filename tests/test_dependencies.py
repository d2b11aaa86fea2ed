"""numpy is the only third-party module the package may import at run time."""

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
        [sys.executable, "-c", PROBE], cwd=SRC, capture_output=True, text=True, check=True,
    )
    imported = json.loads(result.stdout)
    assert "pretopo" in imported and "numpy" in imported
    assert [
        name for name in imported
        if name not in sys.stdlib_module_names and name not in ("numpy", "pretopo")
    ] == []

"""The package runs on its declared dependencies alone."""

from __future__ import annotations

import subprocess
import sys

IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
import repro, repro.cli
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
assert "networkx" not in sys.modules, "networkx was imported"
"""


def test_no_module_imports_networkx():
    # Classification runs on scipy.sparse.csgraph; importing every module
    # of the package must not pull networkx in, even where it is installed.
    result = subprocess.run([sys.executable, "-c", IMPORT_EVERYTHING],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

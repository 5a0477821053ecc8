"""The package needs only numpy and scipy: networkx is optional.

Only ``CausalGraph.to_networkx`` uses networkx, so importing the core,
the serving daemon and the CLI must work in an environment without it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: run in a fresh interpreter where ``import networkx`` raises ImportError
WITHOUT_NETWORKX = """
import runpy
import sys

sys.modules["networkx"] = None
import repro.core
import repro.serve

sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
try:
    import networkx  # noqa: F401
except ImportError:
    print("networkx blocked")
"""


def test_imports_and_cli_help_without_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NETWORKX],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: repro" in proc.stdout
    assert proc.stdout.rstrip().endswith("networkx blocked")

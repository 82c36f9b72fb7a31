"""Importing the library does not load the dist layer.

``repro.dist`` pulls in ``multiprocessing`` and the protocol catalog;
sequential synthesis and verification never need it, so the API and the
CLI import it inside the functions that start a processes run.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["repro", "repro.core.engine"])
def test_import_leaves_dist_unloaded(module):
    script = (
        f"import sys, {module}\n"
        "print(sorted(m for m in ('repro.dist', 'multiprocessing') "
        "if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert completed.stdout.strip() == "[]"

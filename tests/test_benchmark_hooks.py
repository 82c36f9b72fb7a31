"""The benchmark's per-layer hooks still find what they wrap.

``synthbench/layers.py`` wraps public names of every layer by attribute
(``engine.generalise_failure``, ``DfsMatcher.push``/``pop``, ...).  A
rename in ``src/`` makes ``layers.install`` raise ``AttributeError`` and
fails every traced benchmark repeat; this test fails first.  It imports
the module read-only, in a fresh interpreter so the wrappers never touch
this process, and runs one small synthesis and one ``api.verify`` (the
verify-zoo workload's path to the kernel) under them.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
tracer = layers.Tracer()
layers.install(tracer, sys.argv[3])
from repro.core import SynthesisEngine
from repro.protocols.catalog import build_skeleton
report = SynthesisEngine(build_skeleton("msi-tiny")).run()
synth_spans = sorted({span[0] for span in tracer.spans})
tracer.reset()
from repro import api
result = api.verify("mutex")
print(json.dumps({
    "solutions": len(report.solutions),
    "spans": synth_spans,
    "verified": result.is_success,
    "verify_spans": sorted({span[0] for span in tracer.spans}),
}))
"""


def test_layers_install_wraps_every_hook(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    completed = subprocess.run(
        [
            sys.executable, "-c", SCRIPT,
            os.path.join(ROOT, "synthbench"),
            os.path.join(ROOT, "src"),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    assert outcome["solutions"] == 3
    for span in ("engine.evaluate", "pruning.generalise", "pruning.matcher",
                 "pruning.table_add", "kernel.run"):
        assert span in outcome["spans"], span
    assert outcome["verified"]
    assert "kernel.run" in outcome["verify_spans"]

"""The benchmark's traced run finds every function it wraps.

``perfbench/spans.py`` wraps svtkit functions by (module, attribute) name,
including the names ``sve`` and ``hamiltonian`` import from other modules.
A name that no longer resolves does not fail the traced run: the run exits
0 and reports the metrics that need it as null.  This test fails instead.
It imports spans.py from the perfbench directory, as the benchmark's
worker does, in a fresh interpreter, so the wrappers never touch the
svtkit of the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import svtkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PROGRAM = f"""
import json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
import spans
tracer = spans.Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_every_wrapped_function_resolves():
    env = dict(os.environ)
    src = str(Path(svtkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROGRAM], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == []

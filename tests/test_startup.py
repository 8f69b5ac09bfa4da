"""What ``import riderpoly.cli`` loads, checked in a fresh interpreter.

Every CLI run pays for its imports before any counting starts, so the
start-up path must not load modules that no command needs: ``dataclasses``
(and the ``inspect`` it pulls in), the ``verify`` battery, which only
``riderpoly verify`` imports, or ``flatcount``, which only the Mobius
route's flat counts import (``bounds``, brute-force ``count``, ``fit`` and
``types`` never compile it).  The benchmark's tracer
(``perfbench/trace_job.py``) needs the opposite for the layers it wraps:
it looks them up in ``sys.modules`` right after ``import riderpoly.cli``,
and finds each function it wraps by name on its module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import importlib.util, json, sys
before = set(sys.modules)
import riderpoly.cli
loaded = sorted(set(sys.modules) - before)
spec = importlib.util.spec_from_file_location("trace_job", sys.argv[1])
trace_job = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_job)
missing = [f"{mod}.{name}"
           for table in (trace_job.SPANNED, trace_job.COUNTED)
           for mod, names in table.items() for name in names
           if not callable(getattr(sys.modules.get(mod), name, None))]
print(json.dumps({"loaded": loaded, "missing": missing,
                  "traced": sorted({*trace_job.SPANNED, *trace_job.COUNTED})}))
"""


def test_cli_import_loads_traced_layers_only():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench" / "trace_job.py")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout)
    loaded = set(report["loaded"])
    assert not loaded & {"dataclasses", "inspect", "riderpoly.verify",
                         "riderpoly.flatcount"}
    assert report["traced"] and set(report["traced"]) <= loaded
    # Each wrapped function must still be found under the module the
    # tracer names, or ``--trace 1`` fails.
    assert report["missing"] == []

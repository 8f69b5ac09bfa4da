"""What ``import riderpoly.cli`` and each command load, checked in a fresh
interpreter.

Every CLI run pays for its imports before any counting starts, and without
a bytecode cache (``PYTHONDONTWRITEBYTECODE``) it compiles every module it
runs from source.  So ``import riderpoly.cli`` runs only what parsing and
error reporting use, and each command runs only its own route: brute-force
``count`` the enumerator, ``fit`` and ``types`` that and the fits,
``bounds`` the arrangement and the period chain, ``mobius`` the
arrangement, and only the reconstruction route ``symbolic`` and
``flatcount``, with ``flatpolytope`` but not ``bounds`` from the chain.  Nothing loads ``dataclasses`` (and
the ``inspect`` it pulls in), and only ``riderpoly verify`` imports the
``verify`` battery.  An audit hook records the ``exec`` of each module's
code, which happens whether or not bytecode is on disk.

The benchmark's tracer (``perfbench/trace_job.py``) needs the layers it
wraps in ``sys.modules`` right after ``import riderpoly.cli``, and finds
each function it wraps by name on its module.  So the CLI registers the
route modules there unrun, and each runs at its first attribute access.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

# argv: modules to import before the CLI (comma-separated), then the CLI's
# arguments.  Prints, as its last line, the riderpoly modules run by the
# CLI's import and by the whole process, in order, and the exit code.
RUN_PROBE = """
import importlib, json, os, sys

ran = []

def record(event, args):
    path = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if os.path.basename(os.path.dirname(path)) == "riderpoly":
        stem = os.path.basename(path)[:-3]
        ran.append("riderpoly" if stem == "__init__" else "riderpoly." + stem)

sys.addaudithook(record)
early = {name: importlib.import_module(name)
         for name in sys.argv[1].split(",") if name}
import riderpoly.cli
at_import = list(ran)
try:
    code = riderpoly.cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"import": at_import, "run": ran, "exit": code,
                  "same": [sys.modules[name] is module
                           for name, module in early.items()]}))
"""

# The CLI's import gives the package each route module as its attribute,
# as an import of it would, without running it; ``import riderpoly.counting``
# then finds it there.
ATTRIBUTE_PROBE = """
import json, sys

ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(
    getattr(args[0], "co_filename", "").endswith("counting.py")))
import riderpoly.cli
registered = vars(riderpoly).get("counting") is sys.modules["riderpoly.counting"]
unrun = not any(ran)
import riderpoly.counting
print(json.dumps({"registered": registered, "unrun": unrun,
                  "callable": callable(riderpoly.counting.count_series)}))
"""

# The modules run once the CLI is imported and the reconstruction route
# with it, as ``count --method reconstruction`` imports it.
ROUTE_PROBE = """
import json, os, sys

ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(
    getattr(args[0], "co_filename", "")))
import riderpoly.cli
import riderpoly.symbolic
print(json.dumps(sorted(
    "riderpoly." + os.path.basename(path)[:-3] for path in ran
    if os.path.basename(os.path.dirname(path)) == "riderpoly")))
"""

CLI = {"riderpoly", "riderpoly.errors", "riderpoly.linalg",
       "riderpoly.geometry", "riderpoly.cli"}
ENUMERATION = {"riderpoly.counting", "riderpoly.kernel"}
FITS = ENUMERATION | {"riderpoly.quasipoly"}
ARRANGEMENT = {"riderpoly.arrangement", "riderpoly.lattice"}
CHAIN = ARRANGEMENT | {"riderpoly.bounds", "riderpoly.flatpolytope"}
# The Mobius route takes only the flat polytope denominators from the
# period chain, so it does not run ``bounds``.
RECONSTRUCTION = FITS | ARRANGEMENT | {
    "riderpoly.symbolic", "riderpoly.flatcount", "riderpoly.flatpolytope"}


def run_probe(probe, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_traced_layers_only():
    report = run_probe(PROBE, str(ROOT / "perfbench" / "trace_job.py"))
    loaded = set(report["loaded"])
    assert not loaded & {"dataclasses", "inspect", "riderpoly.verify",
                         "riderpoly.flatcount"}
    assert report["traced"] and set(report["traced"]) <= loaded
    # Each wrapped function must still be found under the module the
    # tracer names, or ``--trace 1`` fails.
    assert report["missing"] == []


@pytest.mark.parametrize("argv, code, route", [
    ("count --piece queen --q 2 --n 1:4", 0, ENUMERATION),
    ("fit --piece queen --q 2 --n 1:12", 0, FITS),
    ("types --piece queen --q 2 --n 1:12 --census 1:3", 0, FITS),
    ("bounds --piece rook --q 2", 0, CHAIN),
    ("bounds --piece rook --q 2 --observe-period-n 10", 0, CHAIN | FITS),
    ("mobius --piece queen --q 2", 0, ARRANGEMENT),
    ("count --method reconstruction --piece rook --q 2 --n 1:3", 0,
     RECONSTRUCTION),
    ("count --piece queen", 2, set()),     # argparse: --q and --n missing
], ids=["count", "fit", "types", "bounds", "bounds-observed", "mobius",
        "reconstruction", "usage-error"])
def test_each_command_runs_its_route_only(argv, code, route):
    report = run_probe(RUN_PROBE, "", *argv.split())
    assert report["exit"] == code
    assert sorted(report["import"]) == sorted(CLI)
    assert sorted(report["run"]) == sorted(CLI | route)


def test_module_imported_before_cli_is_kept():
    # The CLI registers no second module object for a route module that
    # a library caller imported first, and the command uses that one.
    report = run_probe(RUN_PROBE, "riderpoly.counting,riderpoly.kernel",
                       *"count --piece queen --q 2 --n 1:4".split())
    assert report["exit"] == 0
    assert report["same"] == [True, True]
    assert sorted(report["run"]) == sorted(CLI | ENUMERATION)


def test_route_module_is_a_package_attribute():
    report = run_probe(ATTRIBUTE_PROBE)
    assert report == {"registered": True, "unrun": True, "callable": True}


def test_importing_a_route_runs_all_of_it():
    # ``from . import name`` binds a registered module unrun, so the route
    # modules import names from one another; importing the route then runs
    # every module it uses, before any of its work starts.
    ran = set(run_probe(ROUTE_PROBE)) - {"riderpoly.__init__"}
    assert ran == (CLI - {"riderpoly"}) | RECONSTRUCTION

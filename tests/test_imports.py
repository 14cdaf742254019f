import importlib
import importlib.util
import os
import subprocess
import sys

import psdrec

from test_cli import hierarchy_inputs

# Importing scipy.optimize costs about 19 MB of resident memory, which every
# psdrec run would carry; nothing in the package needs it. scipy.sparse, with
# scipy's array-API layer and the numpy.f2py, numpy.ma and numpy.testing it
# brings in, costs about 20 MB and 0.14 s more: importing psdrec's modules
# took 0.24 s and 50 MB of max RSS with it at module level, 0.10 s and 29 MB
# without (one fresh interpreter each). Only training's targets need it.
_PROBE = """
import importlib, pkgutil, sys
import psdrec
for mod in pkgutil.walk_packages(psdrec.__path__, "psdrec."):
    importlib.import_module(mod.name)
print(sorted(m for m in sys.modules if m.startswith("psdrec.")))
print("scipy.optimize" in sys.modules)
print("scipy" in sys.modules, "scipy.sparse" in sys.modules)
"""
# The psdrec command line, then whether scipy and scipy.sparse were loaded.
_CLI_PROBE = """
import sys
from psdrec import cli
code = cli.main(sys.argv[1:])
print(code, "scipy" in sys.modules, "scipy.sparse" in sys.modules)
"""
# Whether scipy.sparse is loaded before and after one Targets is built.
_TARGETS_PROBE = """
import sys
from psdrec import data, train
ds = data.RatingDataset([0, 1], [1, 0], [5, 2], 2, 2, 5, [7, 8], [7, 8])
before = "scipy.sparse" in sys.modules
targets = train.effective_targets(ds, False)
print(before, "scipy.sparse" in sys.modules, type(targets.matrix).__module__.startswith("scipy.sparse"))
"""


def _run(code, *args):
    """Stdout lines of a fresh interpreter running code with psdrec importable."""
    src = os.path.dirname(os.path.dirname(psdrec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()


def test_package_import_leaves_scipy_optimize_out():
    src = os.path.dirname(os.path.dirname(psdrec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert "psdrec.tags" in out[0] and "psdrec.cli" in out[0]
    assert out[1] == "False"


def test_package_import_leaves_scipy_out():
    out = _run(_PROBE)
    assert "psdrec.train" in out[0]
    assert out[2] == "False False"


def test_hierarchy_command_runs_without_scipy(tmp_path):
    out = _run(_CLI_PROBE, *hierarchy_inputs(tmp_path))
    assert out[0].startswith("tags=3 ") and out[-1] == "0 False False"


def test_building_targets_loads_scipy_sparse():
    # The positive control of the two tests above: the probe sees the import.
    assert _run(_TARGETS_PROBE) == ["False True True"]


def test_every_exported_name_resolves():
    for name in sorted(psdrec._SUBMODULES):
        module = importlib.import_module(f"psdrec.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"psdrec.{name}.__all__ names missing attributes: {missing}"


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps psdrec functions by module attribute name
    # (perfbench/spans.py WRAPPED); a name removed from src/ would otherwise
    # fail only a traced benchmark run.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in spans.WRAPPED if not callable(getattr(mod, attr, None))]
    assert spans.WRAPPED and missing == [], f"perfbench/spans.py wraps missing attributes: {missing}"

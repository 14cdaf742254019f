import importlib
import os
import subprocess
import sys

import psdrec

# Importing scipy.optimize costs about 19 MB of resident memory, which every
# psdrec run would carry; nothing in the package needs it.
_PROBE = """
import importlib, pkgutil, sys
import psdrec
for mod in pkgutil.walk_packages(psdrec.__path__, "psdrec."):
    importlib.import_module(mod.name)
print(sorted(m for m in sys.modules if m.startswith("psdrec.")))
print("scipy.optimize" in sys.modules)
"""


def test_package_import_leaves_scipy_optimize_out():
    src = os.path.dirname(os.path.dirname(psdrec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert "psdrec.tags" in out[0] and "psdrec.cli" in out[0]
    assert out[1] == "False"


def test_every_exported_name_resolves():
    for name in sorted(psdrec._SUBMODULES):
        module = importlib.import_module(f"psdrec.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"psdrec.{name}.__all__ names missing attributes: {missing}"

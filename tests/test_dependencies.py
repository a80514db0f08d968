import os
import subprocess
import sys
from pathlib import Path

import retargetkit

# Imports every retargetkit module in a fresh interpreter and prints the
# top-level modules that importing them added. Site startup may already have
# imported third-party modules, so only the difference counts.
PROBE = """
import importlib, pkgutil, sys
before = {name.partition(".")[0] for name in sys.modules}
import retargetkit
for module in pkgutil.iter_modules(retargetkit.__path__, "retargetkit."):
    importlib.import_module(module.name)
added = {name.partition(".")[0] for name in sys.modules} - before
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_runtime_dependency():
    src = str(Path(retargetkit.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["numpy", "retargetkit"]

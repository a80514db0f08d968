import ast
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


def _imports_and_calls(path: Path) -> tuple[set[str], set[str]]:
    """The top-level modules a source file imports, and the names of the
    open() and .open()/.write_text() calls it makes."""
    imported, calls = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "write_text"):
                calls.add(name)
    return imported, calls


def test_motionio_alone_makes_the_format_decisions():
    # how a number or a line is written is decided in one module: only
    # motionio imports json or csv, or opens or writes a file; none uses io
    package = Path(retargetkit.__file__).parent
    scans = {path.stem: _imports_and_calls(path) for path in sorted(package.glob("*.py"))}
    assert {name for name, (imported, _) in scans.items() if imported & {"json", "csv"}} == {"motionio"}
    assert {name for name, (_, calls) in scans.items() if calls} == {"motionio"}
    assert not [name for name, (imported, _) in scans.items() if "io" in imported]

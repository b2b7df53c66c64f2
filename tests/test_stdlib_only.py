"""The library imports nothing outside the standard library, and a dropped
import of it leaves nothing alive."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import patternforge


def test_absolute_imports_are_stdlib():
    sources = sorted(Path(patternforge.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "ordinals.py", "cli.py"}
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


REIMPORT = """
import gc, importlib, sys
for _ in range(3):
    for name in [n for n in sys.modules if n == "patternforge" or n.startswith("patternforge.")]:
        del sys.modules[name]
    importlib.import_module("patternforge.cli")
gc.collect()
print(sum(1 for o in gc.get_objects() if isinstance(o, type) and o.__name__ == "OrdinalTerm"))
"""


def test_a_dropped_import_is_collected():
    # a module-level alias such as typing.Tuple[OrdinalTerm, OrdinalTerm]
    # enters typing's subscription cache, which then keeps that copy of the
    # package alive after a re-import; builtin generics are not cached
    env = {**os.environ, "PYTHONPATH": str(Path(patternforge.__file__).parent.parent)}
    res = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True, env=env, check=True)
    assert res.stdout.split() == ["1"]

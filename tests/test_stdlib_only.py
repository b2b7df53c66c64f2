"""The library imports nothing outside the standard library."""

import ast
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

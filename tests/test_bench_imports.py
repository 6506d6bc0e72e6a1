"""The benchmark under bench/ imports the package by name; this checks those
names without running it, so a rename or removal fails here in milliseconds
instead of breaking bench/run.py."""

import ast
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_imports_resolve():
    # each import of charge_ladder in bench/*.py, nested ones included, runs
    # as written; each attribute read from a module it binds must exist
    checked = 0
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.partition(".")[0] == "charge_ladder" for m in modules):
                exec(compile(ast.Module([node], []), str(path), "exec"), bound)
                checked += len(node.names)
        modules = {name: v for name, v in bound.items() if isinstance(v, types.ModuleType)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                assert hasattr(modules[node.value.id], node.attr), \
                    f"{path.name}: {node.value.id}.{node.attr}"
                checked += 1
    assert checked > 40, checked  # the scan saw the benchmark's imports

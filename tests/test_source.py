"""Source checks that need no linter."""

import ast
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "misslab"


@pytest.mark.parametrize("name", sorted(
    p.name for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"))  # re-exports
def test_no_unused_imports(name):
    tree = ast.parse((_PACKAGE / name).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(((a.asname or a.name).split(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name}:{line}: {imp}" for imp, line in imported.items()
                    if imp not in used)
    assert not unused, f"imported but never used: {unused}"


@pytest.mark.parametrize("name", sorted(p.name for p in _PACKAGE.glob("*.py")))
def test_imports_are_stdlib_numpy_or_relative(name):
    # misslab runs on numpy alone; imports inside functions count too.
    tree = ast.parse((_PACKAGE / name).read_text())
    modules = [(a.name, node.lineno) for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names]
    modules += [(node.module, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level]
    foreign = sorted(f"{name}:{line}: {module}" for module, line in modules
                     if module.split(".")[0] not in sys.stdlib_module_names | {"numpy"})
    assert not foreign, f"imports outside the stdlib and numpy: {foreign}"

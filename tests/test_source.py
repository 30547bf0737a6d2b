"""Source hygiene: no library module imports a name it never uses, and no public
function or class is left that no library code or benchmark reaches."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "meanforce"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    """Names a module imports but neither reads nor lists in its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def referenced_names(nodes):
    """Identifiers the nodes read, as names, attributes or imported names."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                out |= {a.name for a in sub.names}
    return out


def unreached_definitions(path):
    """Public module-level functions and classes that nothing outside their own body uses.

    A definition counts as reached when its own module uses it elsewhere, when
    another module of the package (``__init__.py`` included) names it, or when a
    benchmark script under perfbench/ does; the tests do not count.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    outside = set()
    for other in list(SRC.glob("*.py")) + list((ROOT / "perfbench").glob("*.py")):
        if other != path:
            outside |= referenced_names([ast.parse(other.read_text(encoding="utf-8"))])
    unreached = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        own = referenced_names(n for n in tree.body if n is not node)
        if node.name not in own | outside:
            unreached.append(node.name)
    return unreached


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreached_definitions(path):
    assert unreached_definitions(path) == []


def perfbench_imports():
    """(script, module, name) of every `from meanforce... import name` in perfbench/*.py."""
    out = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "meanforce":
                out += [(path.name, node.module, a.name) for a in node.names]
    return out


def test_perfbench_imports_resolve():
    # the benchmark gate imports these from the checkout under test inside the harness
    # process, and an ImportError there ends the whole benchmark run
    imports = perfbench_imports()
    assert imports, "no meanforce import found under perfbench/"
    missing = [f"{script}: {module}.{name}" for script, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []

"""Source hygiene: no library module imports a name it never uses, no public
function or class is left that no library code or benchmark reaches, and no
module grows past the parser's 4096-token step."""

import ast
import importlib
import tokenize
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


def parser_tokens(path):
    """Tokens the parser reads from a module: all but comments, blank-line NLs and the encoding."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as fh:
        return sum(tok.type not in skip for tok in tokenize.tokenize(fh.readline))


# The parser's token array doubles from 4096 entries and allocates the new tokens at
# once, so compiling a module past 4096 tokens takes a step in memory: on Python 3.11,
# corrections.py padded with short assignments compiled with a 1.47 MB tracemalloc
# peak at 4090 tokens and 1.71 MB at 4106. The benchmark runs each workload in a child
# that compiles every module (no .pyc), where such a step adds about 0.15 MB of peak
# RSS, above the 0.1 MB bound on peak_rss_mb in BENCHMARK.json. A module near the edge
# is split or trimmed, not grown.
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_under_token_step(path):
    assert parser_tokens(path) < 4096


def package_imports(path):
    """Modules of the package a module imports from, as `from .name import ...`."""
    return {node.module for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_bath_and_operators_import_nothing_from_each_other():
    # the reservoir functions and the stacked jump index are two independent layers;
    # the per-bath tabulation sits beside the index and hands each bath to its table rule
    assert "operators" not in package_imports(SRC / "bath.py")
    assert "bath" not in package_imports(SRC / "operators.py")

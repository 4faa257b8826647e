"""The package's module graph: which module imports from which.

Each src/homfrag/*.py is read as text, not imported, and its `from .x
import` edges are checked against the graph below.  partitions holds only
partitions and measures only models, so neither reaches the walks of the
tagged line (tilting), the ranked engine or the estimators built on them;
nothing imports the command line; and no two modules import each other,
directly or not.  A new edge is a design change: add it here on purpose.
The oracles in tests/*_oracle.py do not import the command line either.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "homfrag"

# module -> the modules it may import from
ALLOWED = {
    "__init__": {"analytics", "errors", "ldp", "martingales", "measures",
                 "partitions", "ranked", "streams", "tilting"},
    "analytics": {"errors", "numerics", "streams"},
    "cli": {"analytics", "errors", "ldp", "martingales", "measures",
            "partitions", "ranked", "streams", "tilting"},
    "errors": set(),
    "ldp": {"errors", "martingales", "ranked", "streams", "tilting"},
    "martingales": {"errors", "ranked"},
    "measures": {"errors", "numerics", "streams"},
    "numerics": {"errors"},
    "partitions": {"analytics", "errors", "streams"},
    "ranked": {"errors", "streams"},
    "streams": set(),
    "tilting": {"analytics", "errors", "ranked", "streams"},
}


def _imports():
    """module -> the package modules its relative imports name."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update([node.module.split(".")[0]] if node.module
                             else (alias.name for alias in node.names))
        graph[path.stem] = names
    return graph


def test_every_import_is_an_allowed_edge():
    graph = _imports()
    assert sorted(graph) == sorted(ALLOWED)
    assert {m: sorted(graph[m] - ALLOWED[m]) for m in graph
            if graph[m] - ALLOWED[m]} == {}


def test_partitions_and_measures_do_not_reach_the_walks():
    graph = _imports()
    for module in ("partitions", "measures"):
        assert graph[module] & {"tilting", "ranked", "ldp"} == set(), module


def test_no_module_imports_the_command_line():
    assert [m for m, names in _imports().items() if "cli" in names] == []


def test_no_oracle_imports_the_command_line():
    # an oracle that borrowed cli's code would check cli against itself
    oracles = sorted(TESTS.glob("*_oracle.py"))
    assert oracles
    borrowers = []
    for path in oracles:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[:2] == ["homfrag", "cli"] for name in names):
                borrowers.append(path.name)
    assert borrowers == []


def test_there_is_no_import_cycle():
    graph = _imports()
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path + [module])
        if module in done:
            return
        path.append(module)
        for name in sorted(graph.get(module, ())):
            visit(name)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)

"""The package's layering: each module imports only the layers below it."""

import ast
import inspect
import pathlib

import reeskit
from reeskit import groebner

LAYERS = ["poly", "groebner", "ideals", "rees", "invariants", "semigroup",
          "corpus", "cli"]
PACKAGE = pathlib.Path(reeskit.__file__).parent


def _relative_imports(path):
    """Modules of the package named by every relative import in ``path``,
    function-local imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_modules_import_only_lower_layers():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)
    problems = []
    for i, name in enumerate(LAYERS):
        upward = _relative_imports(PACKAGE / f"{name}.py") - set(LAYERS[:i])
        if upward:
            problems.append(f"{name} imports {sorted(upward)}")
    assert not problems, "; ".join(problems)


def test_elimination_entry_points_take_no_order():
    # groebner builds the elimination order from the target ring; an
    # order, ring or weights parameter would hand that choice back
    for entry, params in ((groebner.eliminate_aux, ["target", "build"]),
                          (groebner.eliminate_polys,
                           ["gens", "front", "target"])):
        assert list(inspect.signature(entry).parameters) == params

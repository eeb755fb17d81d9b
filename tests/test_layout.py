"""The package holds only code the program runs: every def has a caller.

A function or class defined in src/conic_census counts as called when its
name appears in some module of the package as a name, an attribute or an
imported alias, its own definition aside.  A method counts as called only
through an attribute or a class-body alias (__radd__ = __add__): a local
variable of the same name calls nothing.  Code that only tests or tools use
belongs in tests/ or tools/.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "conic_census"

# names with no caller in the package, each for a reason outside it
ALLOWED = {
    "error",  # cli._Parser.error: argparse calls it on a usage error
    "orbit_of_conic",  # the benchmark calls it, until ROADMAP item 1 deletes it
}


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _used_names(trees):
    """(names, attributes): every name, attribute and imported alias, and
    the attributes and class-body names alone, which may call a method."""
    used, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
                used.add(node.asname or node.name)
            elif isinstance(node, ast.ClassDef):
                attrs.update(
                    name.id
                    for stmt in node.body
                    if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)
                )
    return used, attrs


def _defined(trees):
    """(module, name, line, is a method) of every def and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {
        id(stmt)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
    }
    return {
        (module, node.name, node.lineno, id(node) in methods)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    }


def test_every_def_in_the_package_has_a_caller():
    trees = _trees()
    assert "pipeline.py" in trees
    used, attrs = _used_names(trees)
    defined = _defined(trees)
    uncalled = sorted(
        f"{module}:{line} {name}"
        for module, name, line, method in defined
        if name not in (attrs if method else used)
        and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert uncalled == []
    # an allowed name that is deleted, or gains a caller, leaves the list
    assert ALLOWED <= {name for _, name, _, _ in defined}
    assert not ALLOWED & used

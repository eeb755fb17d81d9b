"""The package holds only code the program runs: every def has a caller,
and every dataclass field a reader.

A function or class defined in src/conic_census counts as called when its
name appears in some module of the package as a name, an attribute or an
imported alias, its own definition aside.  A method counts as called only
through an attribute or a class-body alias (__radd__ = __add__): a local
variable of the same name calls nothing.  Code that only tests or tools use
belongs in tests/ or tools/.  A field of a @dataclass counts as read when
some module of the package loads it as an attribute (x.name) that is not
called (x.name(...) calls a method of that name): a field that is only set
holds nothing the program reads.  A parameter with a default counts as
passed when some call in the package passes it by keyword, by ** or by
position, a call of a class standing for a call of its __init__: a default
no call overrides is a constant, or an option that only tests set.
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


def _fields(trees):
    """(module, class, field, line) of every annotated field of a @dataclass."""

    def is_dataclass(node):
        return any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        )

    return {
        (module, node.name, stmt.target.id, stmt.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
    }


def _read_attributes(trees):
    """The attribute names loaded and not called: x.name, but not x.name(...)."""
    called = {
        id(node.func)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in called
    }


def test_a_called_attribute_reads_no_field():
    # ring.var(0) calls a method named var; it reads no field var
    tree = ast.parse("ring.var(0)\nn = result.points\nresult.trace.lines()\nf(x.budget)")
    assert _read_attributes({"m.py": tree}) == {"points", "trace", "budget"}


def test_every_dataclass_field_in_the_package_is_read():
    trees = _trees()
    read = _read_attributes(trees)
    fields = _fields(trees)
    assert ("groebner.py", "SolveResult", "points") in {f[:3] for f in fields}
    unread = sorted(
        f"{module}:{line} {cls}.{name}"
        for module, cls, name, line in fields
        if name not in read
    )
    assert unread == []


# parameters with a default that no call in the package passes, each for a
# reason outside it
ALLOWED_DEFAULTS = {
    ("main", "argv"),  # the console-script entry point calls main()
    ("fiber_survey", "census"),  # the benchmark passes the committed census
}


def _defaults(trees):
    """(module, function, parameter, line, its position or None) of every
    parameter with a default.  The position counts the arguments of a call,
    so a method's self or cls is not counted, and a keyword-only parameter
    has none.  An __init__ is named by its class, as its calls are."""
    out = set()
    for module, tree in trees.items():
        classes = {
            id(stmt): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name == "__init__":
                name = classes[id(node)]
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            skip = 1 if id(node) in classes and not static else 0
            args = node.args
            positional = args.posonlyargs + args.args
            for k in range(len(positional) - len(args.defaults), len(positional)):
                out.add((module, name, positional[k].arg, node.lineno, k - skip))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.add((module, name, arg.arg, node.lineno, None))
    return out


def _passed(trees):
    """callee -> what its calls in the package pass: parameter names by
    keyword, "**", positions, and "*" for a *args, which passes any
    position."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keys = out.setdefault(name, set())
            keys.update(kw.arg or "**" for kw in node.keywords)
            keys.update(
                "*" if isinstance(arg, ast.Starred) else k for k, arg in enumerate(node.args)
            )
    return out


def _unpassed(trees):
    passed = _passed(trees)
    return sorted(
        f"{module}:{line} {function}({param}=)"
        for module, function, param, line, position in _defaults(trees)
        if (function, param) not in ALLOWED_DEFAULTS
        and not passed.get(function, set())
        & ({param, "**"} | ({position, "*"} if position is not None else set()))
    )


def test_a_default_counts_as_passed_by_keyword_star_star_or_position():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3): pass\n"
        "def g(x=0): pass\n"
        "def h(x=0): pass\n"
        "class C:\n"
        "    def __init__(self, y=0): pass\n"
        "    def m(self, z=0, w=1): pass\n"
        "class D:\n"
        "    def __init__(self, v=0): pass\n"
        "f(0, 1, d=2)\nh(**opts)\nC(5)\nobj.m(*zs)\n"
    )
    assert _unpassed({"m.py": tree}) == ["m.py:1 f(c=)", "m.py:2 g(x=)", "m.py:8 D(v=)"]


def test_every_default_in_the_package_is_passed_somewhere():
    trees = _trees()
    assert _unpassed(trees) == []
    defaults = {(function, param) for _, function, param, _, _ in _defaults(trees)}
    assert ALLOWED_DEFAULTS <= defaults
    passed = _passed(trees)
    assert not any(param in passed.get(function, ()) for function, param in ALLOWED_DEFAULTS)

"""Static checks on the package source."""

import ast
import pathlib
from collections import Counter

import pytest

import schwarz_atlas

MODULES = sorted(pathlib.Path(schwarz_atlas.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Module-level import names that the module never uses: not as a name,
    an attribute base nor an entry of __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from .roots import build, coxeter_number as h\n"
        "from .exact import format_rational\n"
        "__all__ = ['format_rational']\n"
        "def f():\n"
        "    return np.pi + build()\n"
    )
    assert unused_imports(source) == [(2, "math"), (2, "os"), (4, "h")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _bound_at_module_level(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def dead_private_names(sources):
    """(module, name) for every private module-level name bound in one of the
    sources that no source loads: not as a name, an attribute nor an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded |= {alias.name for alias in node.names}
    return sorted(
        (module, name) for module, tree in trees.items() for node in tree.body
        for name in _bound_at_module_level(node)
        if name.startswith("_") and not name.startswith("__") and name not in loaded)


# read only from outside the package, by perfbench/tracer.py, which wraps
# `_system` to count hits in `_SYSTEM_CACHE`
TRACER_ALIASES = {("schwarzcond", "_SYSTEM_CACHE"), ("schwarzcond", "_system")}


def test_dead_private_name_finder():
    sources = {
        "a": (
            "_TOL = 1e-9\n"
            "_UNUSED = 2\n"
            "_cache: dict = {}\n"
            "__all__ = ['f']\n"
            "def _helper():\n"
            "    return _TOL\n"
            "def _orphan():\n"
            "    return 0\n"
            "class _Shared:\n"
            "    pass\n"
            "def f():\n"
            "    return _helper()\n"
        ),
        "b": (
            "from .a import _Shared\n"
            "from . import a\n"
            "_alias = a._cache\n"
        ),
    }
    assert dead_private_names(sources) == [("a", "_UNUSED"), ("a", "_orphan"), ("b", "_alias")]


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert set(dead_private_names(sources)) == TRACER_ALIASES


def unbound_exports(source):
    """Entries of __all__ that the module does not bind at module level: by a
    def, a class, an assignment or an import."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        bound.update(_bound_at_module_level(node))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = [elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)]
    return [name for name in exported if name not in bound]


def test_unbound_export_finder():
    source = (
        "from .kernels import NumericFailure\n"
        "import numpy as np\n"
        "__all__ = ['f', 'Frame', 'NumericFailure', 'np', 'LIMIT', 'gone', 'Gone']\n"
        "LIMIT: int = 3\n"
        "class Frame:\n"
        "    gone = 1\n"
        "def f():\n"
        "    Gone = 2\n"
        "    return Gone\n"
    )
    assert unbound_exports(source) == ["gone", "Gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def _module_names(tree, modules):
    """The names a source binds to package modules by import: `from . import
    a`, `from pkg import a as b` and `import pkg.a as b`, each to a."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound.update((alias.asname or alias.name, alias.name)
                         for alias in node.names if alias.name in modules)
        elif isinstance(node, ast.Import):
            bound.update((alias.asname, alias.name.rsplit(".", 1)[-1]) for alias in node.names
                         if alias.asname and alias.name.rsplit(".", 1)[-1] in modules)
    return bound


def _loads(tree, bound):
    """Counts of the loads in a tree: a bare name or an imported name by
    itself, an attribute of a package module as (module, name), and any
    other attribute as (None, name)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            obj = node.value
            found[bound.get(obj.id) if isinstance(obj, ast.Name) else None, node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unused_public_names(package, others):
    """(module, name) for every public module-level name bound in one of the
    package sources that no source loads, package or other: not as a name,
    an import nor an attribute of that module; and (module, "Class.name")
    for every public method or property of a package class that no source
    loads as an attribute of anything but a module.  A load inside the
    name's own definition and its entry in __all__ do not count."""
    trees = {module: ast.parse(source) for module, source in {**package, **others}.items()}
    bound = {module: _module_names(tree, package) for module, tree in trees.items()}
    loaded = sum((_loads(tree, bound[module]) for module, tree in trees.items()), Counter())
    unused = []
    for module in package:
        for node in trees[module].body:
            own = _loads(node, bound[module])
            unused += [(module, name) for name in _bound_at_module_level(node)
                       if not name.startswith("_")
                       and loaded[name] + loaded[module, name] == own[name] + own[module, name]]
            if isinstance(node, ast.ClassDef):
                unused += [(module, f"{node.name}.{fn.name}") for fn in node.body
                           if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                           and loaded[None, fn.name] == _loads(fn, bound[module])[None, fn.name]]
    return sorted(unused)


def test_unused_public_name_finder():
    package = {
        "a": (
            "__all__ = ['used', 'listed', 'LIMIT']\n"
            "LIMIT = 3\n"
            "ORPHAN: int = 4\n"
            "def used():\n"
            "    return LIMIT\n"
            "def listed():\n"
            "    return 0\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def shadowed():\n"
            "    return 1\n"
            "def reached():\n"
            "    return 2\n"
            "class Shape:\n"
            "    def area(self):\n"
            "        return self.side()\n"
            "    def side(self):\n"
            "        return 1\n"
            "    def orphan(self, n):\n"
            "        return self.orphan(n - 1) if n else 0\n"
            "    @property\n"
            "    def reached(self):\n"
            "        return 0\n"
            "def _private():\n"
            "    return 1\n"
        ),
        "b": (
            "from .a import Shape\n"
            "from . import a as mod\n"
            "class _Table:\n"
            "    def shadowed(self):\n"
            "        return 2\n"
            "def _use(table):\n"
            "    return table.shadowed() + Shape().area() + mod.reached()\n"
        ),
    }
    others = {"test_a": "from pkg import a\n\ndef test_used():\n    assert a.used() == 3\n"}
    # shadowed: only a method of that name is loaded; Shape.reached: only the
    # module function of that name, through its module
    assert unused_public_names(package, others) == [
        ("a", "ORPHAN"), ("a", "Shape.orphan"), ("a", "Shape.reached"), ("a", "listed"),
        ("a", "recursive"), ("a", "shadowed")]


# public names that no program code loads yet, each with the ROADMAP item
# that plans its caller: the exact monomial for exact flatness (item 10) and
# the closed-form reduction for exact rank-one monodromy (item 19)
PLANNED_CALLERS = {("exact", "reduce_parameters"): 19, ("torus", "char_value"): 10}


def test_every_public_name_is_used():
    # the package is what the program runs: a name that only tests load is
    # a test oracle and lives in tests/, so loads from tests/ do not count
    root = pathlib.Path(__file__).resolve().parent.parent
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    others = {str(path): path.read_text(encoding="utf-8")
              for folder in ("perfbench", "tools") for path in sorted((root / folder).glob("*.py"))}
    assert unused_public_names(package, others) == sorted(PLANNED_CALLERS)


def _defaulted_parameters(node, offset):
    """(name, position) of each defaulted parameter of a def; `offset` is 1
    for a method called through an instance, whose self the call omits."""
    args = node.args
    positional = args.posonlyargs + args.args
    found = [(a.arg, i - offset) for i, a in enumerate(positional)
             if i >= len(positional) - len(args.defaults)]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def unset_defaults(package, others):
    """(module, function, parameter) for every defaulted parameter of a
    public function, or public method of a public class, in the package
    sources that no call in any source passes, by keyword or by position.
    Calls are matched by the called name alone, and a call with *args or
    **kwargs passes every parameter."""
    defaulted = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defaulted += [(module, node.name, p) for p in _defaulted_parameters(node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in fn.decorator_list)
                        defaulted += [(module, fn.name, p)
                                      for p in _defaulted_parameters(fn, 0 if static else 1)]
    passed = set()
    for source in (*package.values(), *others.values()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed.add((name, "*"))
            passed |= {(name, k.arg) for k in node.keywords}
            passed |= {(name, i) for i in range(len(node.args))}
    return sorted((module, fn, param) for module, fn, (param, position) in defaulted
                  if not {(fn, "*"), (fn, param), (fn, position)} & passed)


def test_unset_default_finder():
    package = {
        "a": (
            "def f(x, tol=1e-9, *, seed=0, verbose=False):\n"
            "    return x\n"
            "def g(x, scale=1.0):\n"
            "    return x\n"
            "def h(x, limit=3):\n"
            "    return x\n"
            "def _private(x, knob=1):\n"
            "    return x\n"
            "class Shape:\n"
            "    def area(self, units='m'):\n"
            "        return 0\n"
            "    def scale(self, by=2):\n"
            "        return self\n"
        ),
    }
    others = {"test_a": (
        "from pkg.a import f, g, h, Shape\n"
        "f(1, 1e-6)\n"
        "f(1, seed=3)\n"
        "h(*[1, 2])\n"
        "Shape().scale(3)\n"
        "Shape().area()\n"
    )}
    assert unset_defaults(package, others) == [
        ("a", "area", "units"), ("a", "f", "verbose"), ("a", "g", "scale")]


def test_every_default_is_set_somewhere():
    # a default that only tests pass is a setting that no caller varies, so
    # calls from tests/ do not count
    root = pathlib.Path(__file__).resolve().parent.parent
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    others = {str(path): path.read_text(encoding="utf-8")
              for folder in ("perfbench", "tools")
              for path in sorted((root / folder).glob("*.py"))}
    assert unset_defaults(package, others) == []


# the modules whose docstrings state that no float enters
EXACT_MODULES = ("exact.py", "schwarzcond.py", "roots.py")


def float_uses(source):
    """(line, what) for every float or complex literal, every `float` or
    `complex` name and every numpy import in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append((node.lineno, node.module))
    return sorted(found)


def test_float_use_finder():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from fractions import Fraction\n"
        "TOL = 1e-9\n"
        "def f(x):\n"
        "    '''a docstring that says 0.5 is not a float'''\n"
        "    return float(x) + 2j + math.floor(Fraction(x)) + isinstance(x, complex)\n"
    )
    assert float_uses(source) == [
        (2, "numpy"), (3, "numpy.linalg"), (5, "1e-09"), (8, "2j"), (8, "complex"), (8, "float")]


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_use_no_floats(name):
    path = pathlib.Path(schwarz_atlas.__file__).parent / name
    assert float_uses(path.read_text(encoding="utf-8")) == []


# the package modules that load numpy when imported
NUMERIC_MODULES = ("gauss", "triangle", "torus", "_kernels")


def _run_at_import(tree):
    """The nodes of a module that run when it is imported: all but those
    inside a function body or a lambda."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def eager_numeric_imports(source):
    """(line, module) for every import of numpy or of a numeric package
    module that runs when the source, a package module, is imported."""
    found = set()
    for node in _run_at_import(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module.split(".") if node.module else []
            module = ["schwarz_atlas", *module] if node.level else module
            paths = [[*module, alias.name] for alias in node.names]
        else:
            continue
        for path in paths:
            if path[0] == "numpy":
                found.add((node.lineno, "numpy"))
            elif path[0] == "schwarz_atlas" and path[1:2] and path[1] in NUMERIC_MODULES:
                found.add((node.lineno, ".".join(path[:2])))
    return sorted(found)


def test_eager_numeric_import_finder():
    source = (
        "import json\n"
        "import numpy as np\n"
        "from numpy.linalg import LinAlgError\n"
        "from . import roots, torus\n"
        "from .gauss import NumericFailure\n"
        "import schwarz_atlas._kernels as kernels\n"
        "from .exact import format_rational\n"
        "try:\n"
        "    from .triangle import tessellate\n"
        "except ImportError:\n"
        "    pass\n"
        "def handler():\n"
        "    import numpy\n"
        "    from . import torus\n"
        "    return lambda: __import__('numpy')\n"
        "class Report:\n"
        "    from .torus import invariant_form\n"
        "    def run(self):\n"
        "        from .gauss import monodromy_matrices\n"
        "import schwarz_atlas\n"
    )
    assert eager_numeric_imports(source) == [
        (2, "numpy"), (3, "numpy"), (4, "schwarz_atlas.torus"), (5, "schwarz_atlas.gauss"),
        (6, "schwarz_atlas._kernels"), (9, "schwarz_atlas.triangle"),
        (17, "schwarz_atlas.torus")]


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_cli_imports_the_numeric_layer_only_in_its_handlers(name):
    # `schwarz *`, `roots dump` and `schema` run on the standard library:
    # the package and cli load numpy and the numeric modules only inside
    # the functions that run them (the exact modules are held to no numpy
    # at all by test_exact_modules_use_no_floats)
    path = pathlib.Path(schwarz_atlas.__file__).parent / name
    assert eager_numeric_imports(path.read_text(encoding="utf-8")) == []


# methods that change a dict or list in place
MUTATORS = {"update", "pop", "popitem", "setdefault", "clear",
            "append", "extend", "insert", "remove", "sort", "reverse"}


def _root_name(node):
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_schwarzcond_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and _root_name(node.func) == "schwarzcond")


def assembled_schwarz_results(source):
    """(handler, line) for every `_report` call in a `_cmd_schwarz_*` handler
    whose `results` is neither a `schwarzcond` call nor a name bound once, to
    a `schwarzcond` call, and never changed in place; a handler without a
    `_report` call is listed with line None."""
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_schwarz_")):
            continue
        stores, from_schwarzcond, changed, reports = Counter(), set(), set(), []
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                stores[node.id] += 1
            elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                changed.add(_root_name(node))
            elif isinstance(node, ast.Assign) and _is_schwarzcond_call(node.value):
                from_schwarzcond |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                changed.add(_root_name(node.func.value))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_report":
                reports.append(node)
        for call in reports:
            given = {k.arg: k.value for k in call.keywords}
            results = given.get("results", call.args[2] if len(call.args) > 2 else None)
            if not (_is_schwarzcond_call(results) or (
                    isinstance(results, ast.Name) and results.id in from_schwarzcond
                    and stores[results.id] == 1 and results.id not in changed)):
                found.append((fn.name, call.lineno))
        if not reports:
            found.append((fn.name, None))
    return found


def test_assembled_schwarz_results_finder():
    source = (
        "def _cmd_schwarz_direct(args):\n"
        "    return _report(module='schwarz', results=schwarzcond.check(args.t, args.k))\n"
        "def _cmd_schwarz_named(args):\n"
        "    results = schwarzcond.dm(args.n, args.k)\n"
        "    code = 0 if results['verdict'] else 1\n"
        "    return code, _report(module='schwarz', results=results)\n"
        "def _cmd_schwarz_literal(args):\n"
        "    scan = schwarzcond.dm_equivalence_scan(args.n, args.p)\n"
        "    return _report(module='schwarz', results={'rows': len(scan)})\n"
        "def _cmd_schwarz_grown(args):\n"
        "    results = schwarzcond.check(args.t, args.k)\n"
        "    results['clean'] = True\n"
        "    return _report(module='schwarz', results=results)\n"
        "def _cmd_schwarz_updated(args):\n"
        "    results = schwarzcond.check(args.t, args.k)\n"
        "    results['conditions'].append(None)\n"
        "    return _report(module='schwarz', results=results)\n"
        "def _cmd_schwarz_rebound(args):\n"
        "    results = schwarzcond.check(args.t, args.k)\n"
        "    results = dict(results)\n"
        "    return _report('schwarz', {}, results)\n"
        "def _cmd_schwarz_other(args):\n"
        "    results = roots.dump(args.t)\n"
        "    return _report(module='schwarz', results=results)\n"
        "def _cmd_schwarz_silent(args):\n"
        "    return 0, None\n"
        "def _cmd_roots_dump(args):\n"
        "    return _report(module='roots', results={})\n"
    )
    assert assembled_schwarz_results(source) == [
        ("_cmd_schwarz_literal", 9), ("_cmd_schwarz_grown", 13), ("_cmd_schwarz_updated", 17),
        ("_cmd_schwarz_rebound", 21), ("_cmd_schwarz_other", 24), ("_cmd_schwarz_silent", None)]


def test_schwarz_handlers_report_schwarzcond_results_unchanged():
    # the exact layer builds each `schwarz` report's results in one pass; the
    # CLI only wraps them
    path = pathlib.Path(schwarz_atlas.__file__).parent / "cli.py"
    source = path.read_text(encoding="utf-8")
    handlers = [fn.name for fn in ast.parse(source).body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_schwarz_")]
    assert len(handlers) == 4
    assert assembled_schwarz_results(source) == []

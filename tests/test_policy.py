"""Policies that the package's source must keep.

The threshold policy is written in one place: every float literal in
(0, 1e-3] in the package is the whole value of a module-level UPPER_CASE
constant of ``ctxlab.linalg``, or one of the report bounds of
``ctxlab.cli``.  And the dense product closure is taken only where no
exact builder applies: ``generate_algebra`` is called only inside
``locnet.region_algebras``, for generators that are not Pauli strings.
And scipy enters the package only as ``scipy.sparse``: no module imports
``scipy.linalg``, ``scipy.sparse.linalg`` or any other part of it.  And
no public definition of the package is reached by tests alone: each is
read by another definition of the package, by the benchmark or by the
acceptance tests, or is kept, with its reason, in ``KEPT_TEST_ONLY``.
And whether an input value is well formed is decided in ``validation``
alone: no except clause elsewhere is bare or catches ``KeyError``,
``TypeError``, ``ValueError``, ``OverflowError``, ``AttributeError``,
``IndexError``, a class derived from one or a class they derive from."""

import ast
import builtins
import collections
import importlib.util
import pathlib

import ctxlab

PACKAGE = pathlib.Path(ctxlab.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_BOUNDS = {"STATE_EXTEND_BOUND", "CCR_BOUND", "CLASSICAL_BOUND_SLACK"}


def unnamed_thresholds(source: str, name: str) -> list:
    """``name:line: value`` for each small float literal outside the named
    constants allowed in module ``name``."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            allowed = target.isupper() if name == "linalg.py" else name == "cli.py" and target in REPORT_BOUNDS
            if allowed and isinstance(node.value, ast.Constant):
                named.add(id(node.value))
    return [
        f"{name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < node.value <= 1e-3
        and id(node) not in named
    ]


def test_every_threshold_is_named_in_linalg():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += unnamed_thresholds(path.read_text(), str(path.relative_to(PACKAGE)))
    assert found == []


def test_the_lint_finds_literal_thresholds():
    assert unnamed_thresholds("x = max(tol, 1e-8)\n", "staralg.py") == ["staralg.py:1: 1e-08"]
    assert unnamed_thresholds("FLOOR = 1e-8\n", "staralg.py") == ["staralg.py:1: 1e-08"]
    assert unnamed_thresholds("FLOOR = 1e-8\nx = -1e-9\n", "linalg.py") == ["linalg.py:2: 1e-09"]
    assert unnamed_thresholds("def f(tol=1e-10):\n    FLOOR = 1e-8\n", "linalg.py") == [
        "linalg.py:1: 1e-10",
        "linalg.py:2: 1e-08",
    ]
    assert unnamed_thresholds("CCR_BOUND = 1e-10\nOTHER = 1e-10\n", "cli.py") == ["cli.py:2: 1e-10"]
    assert unnamed_thresholds("FLOOR = 1e-8\nx = 0.5 + 2e-3\n", "linalg.py") == []


def closure_calls(source: str, name: str) -> list:
    """``name:line: function`` for each call of ``generate_algebra`` in
    module ``name`` outside ``locnet.region_algebras``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "generate_algebra" and (name, function) != ("locnet.py", "region_algebras"):
                    found.append(f"{name}:{child.lineno}: {function}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), "<module>")
    return found


def test_only_region_algebra_takes_the_product_closure():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += closure_calls(path.read_text(), str(path.relative_to(PACKAGE)))
    assert found == []


def test_the_lint_finds_closure_calls():
    region = "def region_algebras(g):\n    return generate_algebra(g, 2)\n"
    assert closure_calls(region, "locnet.py") == []
    assert closure_calls(region, "staralg.py") == ["staralg.py:2: region_algebras"]
    assert closure_calls("x = generate_algebra([], 2)\n", "cli.py") == ["cli.py:1: <module>"]
    assert closure_calls("def f():\n    return staralg.generate_algebra([], 2)\n", "cli.py") == ["cli.py:2: f"]
    assert closure_calls("def inductive_limit(net):\n    return [generate_algebra([], 2)]\n", "locnet.py") == [
        "locnet.py:2: inductive_limit"
    ]
    nested = "def region_algebras(g):\n    def inner():\n        return generate_algebra(g, 2)\n    return inner\n"
    assert closure_calls(nested, "locnet.py") == ["locnet.py:3: inner"]
    assert closure_calls("def generate_algebra(g, d):\n    return close(g)\n", "staralg.py") == []


def scipy_imports(source: str, name: str) -> list:
    """``name:line: module`` for each scipy module other than
    ``scipy.sparse`` that module ``name`` imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
            # a name imported from a module is itself a module or an attribute
            submodules = [f"{node.module}.{alias.name}" for alias in node.names]
            modules = [m if importlib.util.find_spec(m) else node.module for m in submodules]
        else:
            continue
        found += [f"{name}:{node.lineno}: {m}" for m in modules if m.split(".")[0] == "scipy" and m != "scipy.sparse"]
    return found


def test_the_package_takes_only_scipy_sparse():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += scipy_imports(path.read_text(), str(path.relative_to(PACKAGE)))
    assert found == []


def test_the_lint_finds_scipy_imports():
    assert scipy_imports("from scipy.sparse import csr_array\n", "gft.py") == []
    assert scipy_imports("from scipy import sparse\nimport numpy.linalg\n", "gft.py") == []
    lazy = "def f():\n    from scipy.sparse.linalg import expm_multiply\n"
    assert scipy_imports(lazy, "gft.py") == ["gft.py:2: scipy.sparse.linalg"]
    assert scipy_imports("import scipy.linalg\nimport scipy\n", "cli.py") == ["cli.py:1: scipy.linalg", "cli.py:2: scipy"]
    assert scipy_imports("from scipy import linalg\n", "gft.py") == ["gft.py:1: scipy.linalg"]
    assert scipy_imports("from scipy.sparse import csr_array, linalg\n", "gft.py") == ["gft.py:1: scipy.sparse.linalg"]
    assert scipy_imports("from scipy.special import comb\n", "gft.py") == ["gft.py:1: scipy.special"]


# Public definitions that only tests call, kept on purpose: qualified name -> its reason.
KEPT_TEST_ONLY: dict = {}


def _names_read(tree) -> collections.Counter:
    """How often each name is read, as a variable or as an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def reached_by_tests_alone(package: dict, readers: list) -> list:
    """Qualified names (``module.name`` or ``module.Class.method``) of the
    public top-level functions and classes, and the public methods of
    top-level classes, in ``package`` (module name -> source) whose name is
    read nowhere in the package outside its own definition, nor in any of
    the ``readers`` sources."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    read = sum((_names_read(tree) for tree in trees.values()), collections.Counter())
    outside = set().union(*(_names_read(ast.parse(source)) for source in readers))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{module}.{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef)]
            for qualname, definition in members:
                if definition.name.startswith("_") or definition.name in outside:
                    continue
                if read[definition.name] == _names_read(definition)[definition.name]:
                    found.append(qualname)
    return found


def test_no_public_definition_is_reached_by_tests_alone():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert sorted(reached_by_tests_alone(package, readers)) == sorted(KEPT_TEST_ONLY)


def test_the_lint_finds_definitions_reached_by_tests_alone():
    package = {
        "a": "def used():\n    return 1\n\ndef caller():\n    return used()\n",
        "b": "import a\n\nclass Box:\n    def opened(self):\n        return a.caller()\n\n"
        "    def _hidden(self):\n        return 0\n",
    }
    assert reached_by_tests_alone(package, []) == ["b.Box", "b.Box.opened"]
    assert reached_by_tests_alone(package, ["Box().opened()\n"]) == []
    assert reached_by_tests_alone({"c": "def loop(n):\n    return loop(n - 1)\n"}, []) == ["c.loop"]
    assert reached_by_tests_alone({"cli": "def main():\n    return 0\n\nmain()\n"}, []) == []


READING_ERRORS = (KeyError, TypeError, ValueError, OverflowError, AttributeError, IndexError)


def caught_class(node, namespace: dict):
    """The object an except clause names: a name looked up in ``namespace``
    (the module's globals), then in builtins, then as a module, and each
    ``.attr`` after it; None where a lookup fails."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    value = namespace.get(node.id, vars(builtins).get(node.id))
    if value is None and importlib.util.find_spec(node.id) is not None:
        value = importlib.import_module(node.id)
    for attr in attrs:
        value = getattr(value, attr, None)
    return value


def reading_catches(source: str, name: str) -> list:
    """``name:line: exception`` for each except clause of module ``name``
    that is bare or names one of ``READING_ERRORS``, a subclass of one (such
    as ``json.JSONDecodeError``) or a base class of one, unless ``name`` is
    ``validation.py``."""
    if name == "validation.py":
        return []
    module = "ctxlab." + name.removesuffix(".py").replace("/", ".")
    namespace = vars(importlib.import_module(module)) if importlib.util.find_spec(module) else {}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append(f"{name}:{node.lineno}: bare except")
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for exc in caught:
            cls = caught_class(exc, namespace)
            if isinstance(cls, type) and any(issubclass(e, cls) or issubclass(cls, e) for e in READING_ERRORS):
                found.append(f"{name}:{node.lineno}: {ast.unparse(exc)}")
    return found


def test_only_validation_decides_what_input_is_well_formed():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += reading_catches(path.read_text(), str(path.relative_to(PACKAGE)))
    assert found == []


def test_the_lint_finds_reading_catches():
    def catching(clause):
        return f"try:\n    f()\n{clause}:\n    pass\n"

    assert reading_catches(catching("except KeyError"), "cli.py") == ["cli.py:3: KeyError"]
    assert reading_catches(catching("except (OSError, TypeError, ValueError) as exc"), "fincat.py") == [
        "fincat.py:3: TypeError",
        "fincat.py:3: ValueError",
    ]
    assert reading_catches(catching("except builtins.AttributeError"), "cli.py") == [
        "cli.py:3: builtins.AttributeError"
    ]
    assert reading_catches(catching("except LookupError"), "cli.py") == ["cli.py:3: LookupError"]
    assert reading_catches(catching("except Exception"), "cli.py") == ["cli.py:3: Exception"]
    assert reading_catches(catching("except"), "cli.py") == ["cli.py:3: bare except"]
    assert reading_catches(catching("except (OSError, json.JSONDecodeError, UnicodeDecodeError)"), "cli.py") == [
        "cli.py:3: json.JSONDecodeError",
        "cli.py:3: UnicodeDecodeError",
    ]
    # np is found among the module's globals, json.decoder by import
    assert reading_catches(catching("except np.linalg.LinAlgError"), "fincat.py") == [
        "fincat.py:3: np.linalg.LinAlgError"
    ]
    assert reading_catches(catching("except json.decoder.JSONDecodeError"), "new.py") == [
        "new.py:3: json.decoder.JSONDecodeError"
    ]
    assert reading_catches(catching("except (OSError, RecursionError, BrokenPipeError)"), "cli.py") == []
    assert reading_catches(catching("except InputError"), "fincat.py") == []
    assert reading_catches(catching("except Undefined"), "cli.py") == []
    assert reading_catches(catching("except (KeyError, IndexError)"), "validation.py") == []

"""Every name a library module imports is used in that module, every
top-level name and method is referenced, every defaulted parameter is both
passed and left out, and the CLI loads no more than it runs."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "extlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = SRC.parent.parent / "perfbench"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, skipping ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _library_classes() -> set[str]:
    return {node.name for path in SRC.glob("*.py") for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef)}


def _receiver(node: ast.Attribute, cls, classes: set[str]) -> str:
    """"C.x" for ``self.x`` in the body of class C and for ``C.x`` with C a
    library class, where the syntax names the class; "x" elsewhere."""
    if isinstance(node.value, ast.Name):
        if node.value.id == "self" and cls:
            return f"{cls}.{node.attr}"
        if node.value.id in classes:
            return f"{node.value.id}.{node.attr}"
    return node.attr


def _referenced_names(node: ast.AST, attributes_only: bool = False, cls=None,
                      classes: frozenset = frozenset()) -> set[str]:
    """Names, attribute names (by :func:`_receiver`, in the body of class
    ``cls``) and string-annotation names used under node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(_receiver(sub, cls, classes))
    for annotation in _annotations(node):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _referenced_names(ast.parse(sub.value, mode="eval"))
    return used


def _units(tree: ast.Module):
    """(name, owners, cls, nodes) per top-level statement, with each
    non-dunder method split off from its class: ``name`` is "f", "C", "C.m"
    or the non-dunder name a module-level assignment binds ("" for
    statements that define nothing), ``owners`` the names whose definitions
    hold the nodes, and ``cls`` the class whose body holds them, if any."""
    for stmt in tree.body:
        rest, cls = [stmt], None
        if isinstance(stmt, ast.ClassDef):
            rest, cls = stmt.bases + stmt.keywords + stmt.decorator_list, stmt.name
            for member in stmt.body:
                name = getattr(member, "name", "")
                if isinstance(member, ast.FunctionDef) and not (name[:2] == name[-2:] == "__"):
                    qualified = f"{cls}.{name}"
                    yield qualified, {cls, name, qualified}, cls, [member]
                else:
                    rest.append(member)
        name = getattr(stmt, "name", "")
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if len(names) == 1 and not (names[0][:2] == names[0][-2:] == "__"):
                name = names[0]
        yield name, {name}, cls, rest


def _unused(methods: bool) -> dict[str, str]:
    """Top-level functions, classes and assigned names, or methods, that
    nothing in the library references outside their own definition; the
    benchmark's uses of methods count too.  ``self.m`` in the body of class
    C, and ``C.m``, reference C's method m only; an attribute m of any other
    object references every method m."""
    classes = _library_classes()
    defined: dict[str, str] = {}
    uses: list[tuple[set[str], set[str]]] = []  # (owners, names the unit uses)
    paths = sorted(SRC.glob("*.py")) + (sorted(BENCH.glob("*.py")) if methods else [])
    for path in paths:
        for name, owners, cls, nodes in _units(ast.parse(path.read_text(), filename=str(path))):
            if name and ("." in name) == methods and path.parent == SRC:
                defined[name] = path.name
            uses.append((owners, set().union(
                *(_referenced_names(n, methods, cls, classes) for n in nodes))))
    return {
        name: module for name, module in defined.items()
        if not any(n in used and n not in owners
                   for n in {name, name.rpartition(".")[2]} for owners, used in uses)
    }


def test_every_top_level_helper_is_used():
    dead = _unused(methods=False)
    assert not dead, f"top-level names nothing in the library uses: {dead}"


def test_every_method_is_used():
    dead = _unused(methods=True)
    assert not dead, f"methods nothing in the library or the benchmark calls: {dead}"


def _dead_attributes() -> list[str]:
    """``Class.name`` for each ``self.name`` a library class stores that no
    library or benchmark code reads: as ``self.name`` in that class's body
    or ``Class.name``, or as ``.name`` of any other object."""
    classes = _library_classes()
    stored, read = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            cls = stmt.name if isinstance(stmt, ast.ClassDef) else None
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Attribute):
                    continue
                if isinstance(node.ctx, ast.Load):
                    read.add(_receiver(node, cls, classes))
                elif (cls and path.parent == SRC and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    stored.add((node.attr, cls, f"{path.stem}.{cls}.{node.attr}"))
    return sorted(where for name, cls, where in stored
                  if name not in read and f"{cls}.{name}" not in read)


def test_every_stored_attribute_is_read():
    dead = _dead_attributes()
    assert not dead, f"attributes the library stores and never reads: {dead}"


def test_no_assert_statements():
    """``python -O`` strips assert statements, so a check written as one
    would pass vacuously: the library raises explicitly."""
    found = {
        path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Assert)]
        for path in sorted(SRC.glob("*.py"))
    }
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"assert statements (file: lines): {found}"


def test_the_cli_does_not_load_the_oracle():
    """Only ``extlab verify`` uses the dense oracle, so ``resolve`` and
    ``scenario`` do not pay for importing it."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, extlab.cli; print('extlab.oracle' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def test_the_cli_does_not_load_openssl():
    """The cache key is the builtin SHA-256, so naming a cache file does
    not load ``_hashlib`` and OpenSSL's libcrypto, about 3.5 MB of RSS."""
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no builtin SHA-256")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import sys, extlab.cli\n"
        "from extlab.gradedmod import trivial_module\n"
        "from extlab.resolve import cache_path\n"
        "from extlab.steenrod import AlgebraTable\n"
        "cache_path('cache', trivial_module(AlgebraTable(4), 4), 2, 4)\n"
        "print('_hashlib' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_the_cli_does_not_load_tempfile():
    """Only ``save_resolution`` makes a temporary file, so importing the CLI
    does not import ``tempfile``, and with it ``shutil`` and ``random``.  The
    child runs with ``-S``: ``site`` may import ``tempfile`` itself, through
    a ``.pth`` file of an installed package."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, extlab.cli; print('tempfile' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def _defaulted_parameters(path: Path):
    """(key, label, offset, name, index) per defaulted parameter of each
    function or method in a library file.  ``key`` is the name a call
    reaches it by: "f" for a function, "C" for ``C.__init__`` and "C.m" for
    another method; ``offset`` the positional arguments no call writes (1
    for ``self``), and ``index`` the parameter's position, None for a
    keyword-only one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {id(member): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for member in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        key = node.name if not cls else cls.name if node.name == "__init__" else f"{cls.name}.{node.name}"
        label = f"{path.stem}.{cls.name + '.' if cls else ''}{node.name}"
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        offset = 1 if cls and not static else 0
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield key, label, offset, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield key, label, offset, arg.arg, None


def _calls(path: Path, classes: set[str]):
    """(name, call) for each call in a file.  A called name is named as it
    was imported; an attribute by :func:`_receiver`, as "C.m" where the
    syntax names the class C and as ".m" where it does not."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names if a.asname}
    for stmt in tree.body:
        cls = stmt.name if isinstance(stmt, ast.ClassDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    yield aliases.get(node.func.id, node.func.id), node
                elif isinstance(node.func, ast.Attribute):
                    name = _receiver(node.func, cls, classes)
                    yield name if "." in name else f".{name}", node


def _one_value_parameters() -> list[str]:
    """``function(parameter): never passed`` or ``never left out`` for each
    defaulted parameter of the library that the calls in the library and
    the benchmark reach with one value only.  A parameter keyed "C.m" is
    reached by calls named "C.m" and ".m", and one keyed "f" by "f" and
    ".f".  A call that spreads ``*args`` or ``**kw`` counts as passing
    every parameter."""
    classes = _library_classes()
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for name, call in _calls(path, classes):
            calls.setdefault(name, []).append(call)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for key, label, offset, name, index in _defaulted_parameters(path):
            passed = left_out = False
            for call in calls.get(key, []) + calls.get("." + key.rpartition(".")[2], []):
                given = (any(isinstance(a, ast.Starred) for a in call.args)
                         or any(k.arg in (None, name) for k in call.keywords)
                         or index is not None and offset + len(call.args) > index)
                passed |= given
                left_out |= not given
            if not (passed and left_out):
                found.append(f"{label}({name}): never {'passed' if left_out else 'left out'}")
    return sorted(found)


def test_every_default_is_both_passed_and_left_out():
    """A defaulted parameter that every call passes, or that no call
    passes, is an option with one value in use: a required parameter or a
    constant says the same with one configuration fewer."""
    found = _one_value_parameters()
    assert not found, f"defaulted parameters that one value reaches: {found}"

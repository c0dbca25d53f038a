"""Every name a library module imports is used in that module, every
top-level name and method is referenced, and the CLI loads no more than
it runs."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "extlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def _referenced_names(node: ast.AST, attributes_only: bool = False) -> set[str]:
    """Names, attribute names and string-annotation names used under node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    for annotation in _annotations(node):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _referenced_names(ast.parse(sub.value, mode="eval"))
    return used


def _units(tree: ast.Module):
    """(name, owners, nodes) per top-level statement, with each non-dunder
    method split off from its class: ``name`` is "f", "C", "C.m" or the
    non-dunder name a module-level assignment binds ("" for statements that
    define nothing), ``owners`` the names whose definitions hold the nodes."""
    for stmt in tree.body:
        rest = [stmt]
        if isinstance(stmt, ast.ClassDef):
            rest = stmt.bases + stmt.keywords + stmt.decorator_list
            for member in stmt.body:
                name = getattr(member, "name", "")
                if isinstance(member, ast.FunctionDef) and not (name[:2] == name[-2:] == "__"):
                    yield f"{stmt.name}.{name}", {stmt.name, name}, [member]
                else:
                    rest.append(member)
        name = getattr(stmt, "name", "")
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if len(names) == 1 and not (names[0][:2] == names[0][-2:] == "__"):
                name = names[0]
        yield name, {name}, rest


def _unused(methods: bool) -> dict[str, str]:
    """Top-level functions, classes and assigned names, or methods, that
    nothing in the library references outside their own definition.  A
    method counts as referenced where an attribute of its name is, whatever
    the object."""
    defined: dict[str, str] = {}
    uses: list[tuple[set[str], set[str]]] = []  # (owners, names the unit uses)
    for path in sorted(SRC.glob("*.py")):
        for name, owners, nodes in _units(ast.parse(path.read_text(), filename=str(path))):
            if name and ("." in name) == methods:
                defined[name] = path.name
            uses.append((owners, set().union(*(_referenced_names(n, methods) for n in nodes))))
    return {
        name: module for name, module in defined.items()
        for short in [name.rpartition(".")[2]]
        if not any(short in used for owners, used in uses if short not in owners)
    }


def test_every_top_level_helper_is_used():
    dead = _unused(methods=False)
    assert not dead, f"top-level names nothing in the library uses: {dead}"


def test_every_method_is_used():
    dead = _unused(methods=True)
    assert not dead, f"methods nothing in the library calls: {dead}"


def _dead_attributes() -> list[str]:
    """``Class.name`` for each ``self.name`` a library class stores that no
    library code reads as ``.name``, on any object."""
    stored, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        stored.add((sub.attr, f"{path.stem}.{node.name}.{sub.attr}"))
    return sorted(where for name, where in stored if name not in read)


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

"""Every module-level private name of ``src/epsmult`` is used somewhere in
the package outside its own definition, and every module-level helper of
``tests/`` somewhere in the tests, so a refactor cannot leave an orphaned
helper behind."""

import ast
from pathlib import Path

import epsmult

PACKAGE = Path(epsmult.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _defined(node):
    """Names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _used(node):
    """Names a statement reads or imports by name.  Attributes do not count:
    a cache slot such as ``MonomialIdeal._hull`` may share a function's
    name."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def test_every_private_module_name_is_used():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            own = _defined(node)
            defined.update((name, path.name) for name in own)
            used.update(name for name in _used(node) if name not in own)
    orphans = sorted(f"{module}: {name}" for name, module in defined.items()
                     if name.startswith("_") and not name.startswith("__")
                     and name not in used)
    assert not orphans, orphans


def _imported(tree):
    """(name, line) for every name an import binds, ``from __future__``
    excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_used():
    """Each module reads every name it imports; ``__init__.py`` only
    re-exports, so it is not scanned."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree) if name not in read]
    assert not unused, unused


def test_every_test_helper_is_used():
    """A module-level function of ``tests/`` other than a ``test_*`` one is
    read, imported or requested as a fixture (a parameter of that name)
    somewhere in ``tests/`` outside its own definition."""
    helpers, used = {}, set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            own = _defined(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                helpers.update((name, path.name) for name in own
                               if not name.startswith("test_"))
            used.update(name for name in _used(node) if name not in own)
            used.update(n.arg for n in ast.walk(node) if isinstance(n, ast.arg))
    orphans = sorted(f"{module}: {name}" for name, module in helpers.items()
                     if name not in used)
    assert not orphans, orphans


# the private names of ``ring`` that other modules may import: input
# checks, text, point lists, weight cuts, localization and the ideal-level
# kernel entries; the value-level kernel and ``_stack`` stay inside ring
RING_PRIVATE_IMPORTS = {
    "_check_exponent", "_format_monomial", "_minimal", "_weight_ideal",
    "_localized_ring", "_face_primes", "_floor_sum",
    "_products", "_gap_top", "_in_m_times",
}


def test_only_ring_reads_an_ideals_value():
    """No module of ``src/epsmult`` but ``ring.py`` reads an attribute
    ``_stack`` or imports a private name of ``ring`` outside
    ``RING_PRIVATE_IMPORTS``."""
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "ring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_stack":
                leaks.append(f"{path.name}:{node.lineno}: ._stack")
            elif isinstance(node, ast.ImportFrom) and node.module == "ring":
                leaks += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")
                          and alias.name not in RING_PRIVATE_IMPORTS]
    assert not leaks, leaks


def test_only_polyhedra_reaches_the_hull_and_the_lp():
    """No module of ``src/epsmult`` but ``_polyhedra.py`` names the hull
    cache ``_hull_of`` or the LP ``_lp_convex_dominated``, and ``newton.py``
    does not import ``_weight_ideal``: newton asks ``_inside`` and
    ``_closure`` in every dimension."""
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_polyhedra.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = set(_imported(tree))
        names.update((n.id, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Name))
        names.update((n.attr, n.lineno) for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute))
        banned = {"_hull_of", "_lp_convex_dominated"}
        if path.name == "newton.py":
            banned.add("_weight_ideal")
        leaks += [f"{path.name}:{line}: {name}" for name, line in sorted(names)
                  if name in banned]
    assert not leaks, leaks

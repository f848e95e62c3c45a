"""The three rank routes share only the imports pinned here.

cb (Kac-Walton fusion), qgrass (Witten's quantum product) and schur (the
classical coinvariant rank) play against each other, so a reduction step
that one of them borrows from another would let both be wrong together.
This test parses the three modules and lists every import between them,
with the function it sits in; a new one fails here.  It plays the role for
route independence that test_reach.py plays for test-only code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cblocks"
ROUTES = ("cb", "qgrass", "schur")

# (importer, enclosing function or None at module level, route, name); the
# name is None when the route's module itself is imported
PINNED = {
    ("cb", None, "schur", "_lr_mult"),
    ("cb", None, "schur", "_coinvariant_rank"),
    ("cb", "witten_rank", "qgrass", "GrassmannBox"),
    ("cb", "witten_rank", "qgrass", "gw_invariant"),
    ("qgrass", None, "schur", "_lr_walk"),
}


def _route(dotted):
    """The route a dotted module path names, or None: `schur`, `cblocks.schur`."""
    parts = dotted.split(".") if dotted else []
    if parts[:1] == ["cblocks"]:
        parts = parts[1:]
    return parts[0] if len(parts) == 1 and parts[0] in ROUTES else None


def _imports(importer, tree):
    """Every (importer, function, route, name) import in one module's tree."""
    found = set()

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if _route(alias.name):
                        found.add((importer, function, _route(alias.name), None))
            elif isinstance(child, ast.ImportFrom):
                # `from .x import` and `from cblocks.x import` name one module
                package = child.module
                if child.level == 1:
                    package = "cblocks." + package if package else "cblocks"
                elif child.level:
                    package = None
                route = _route(package)
                for alias in child.names:
                    if route:
                        found.add((importer, function, route, alias.name))
                    elif package == "cblocks" and alias.name in ROUTES:
                        found.add((importer, function, alias.name, None))
            walk(child, function)

    walk(tree, None)
    return {entry for entry in found if entry[2] != importer}


def test_every_import_between_the_rank_routes_is_pinned():
    found = set()
    for name in ROUTES:
        found |= _imports(name, ast.parse((SRC / f"{name}.py").read_text()))
    assert found == PINNED


def test_the_import_scan_sees_every_form():
    source = (
        "import cblocks.qgrass\n"
        "import cblocks.schur as s\n"
        "from cblocks import qgrass\n"
        "from . import schur, young\n"
        "from .young import partition\n"
        "def f():\n"
        "    from cblocks.schur import _lr_walk\n"
        "    def g():\n"
        "        from .qgrass import gw_invariant as gw\n"
    )
    assert _imports("cb", ast.parse(source)) == {
        ("cb", None, "qgrass", None),
        ("cb", None, "schur", None),
        ("cb", "f", "schur", "_lr_walk"),
        ("cb", "g", "qgrass", "gw_invariant"),
    }

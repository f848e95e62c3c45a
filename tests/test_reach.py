"""Every function and method defined in the package runs on one of its own paths.

The paths are the CLI commands on the README inputs and the rank-equality
search script, run in process under a profile hook with cold caches.  A
function that only the tests reach belongs in the tests or nowhere, so a new
one fails here.  This test plays the role for test-only code that
test_caches.py plays for unbounded caches.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from cblocks.cli import run
from test_cli import COMMANDS, golden_argv

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "cblocks"

# Functions that the runs below do not reach.  Giving one a caller removes it
# from this set; nothing is added to it.
UNREACHED = {
    # the cross-check routes that the tests play against the main routes
    "schur.invariant_oracle",
    "schur._gl_dimension",
    "schur._gl_character",
    "schur._gl_character.<locals>.strips",
    "cb.factorization_rank",
    "cb.level_weights",
    "qgrass.QClass.__new__",
    "qgrass.QClass.of",
    "qgrass.QClass.coefficient",
    "qgrass.quantum_product",
    # no caller until D.F on F-curves checks the Hassett criterion
    "nefgeo.hassett_contracts",
    "nefgeo.HassettWeights.n",
    # value protocol of the setup, which no command compares, hashes or prints
    "young.BlockSetup.__eq__",
    "young.BlockSetup.__hash__",
    "young.BlockSetup.__repr__",
    # the console-script entry point; the runs call cli.run
    "cli.main",
}


def _defined():
    """{(file, first line, name): "module.qualname"} for every def in the package.

    The first line is that of the first decorator, as in the code object.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cblocks.{path.stem}")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    found[module.__file__, first, child.name] = f"{path.stem}.{qualname}"
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return found


def _clear_caches():
    """Empty every functools cache of the package, so each cached body runs."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cblocks."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and value.__module__ == name:
                    value.cache_clear()


def _runs():
    """(argv, expected exit code) for every command path the package offers."""
    for command in COMMANDS:
        for fmt in ("text", "json", "csv"):
            yield golden_argv(command) + ["--format", fmt], 0
    rank = golden_argv("rank")
    for extra in (["--method", "fusion"], ["--method", "witten"], ["--method", "classical"]):
        yield rank + extra, 0
    # at its critical level (s = 1) the quantum route multiplies classes
    # outside the orbit of (), so it reaches the LR product and rim hooks
    yield ["rank"] + golden_argv("hassett")[1:7] + ["--method", "witten"], 0
    yield golden_argv("partner") + ["--force"], 0
    yield ["rank", "--r", "2", "--weights", "w1,w1"], 1
    yield ["rank", "--r", "2", "--level", "1", "--weights", "2w1,w1"], 2


def _search_script():
    path = REPO / "scripts" / "search_rank_equality.py"
    spec = importlib.util.spec_from_file_location("search_rank_equality", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_package_function_has_a_caller_outside_the_tests():
    defined = _defined()
    search = _search_script()
    _clear_caches()
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes = []
    sys.setprofile(hook)
    try:
        for argv, _ in _runs():
            codes.append(run(argv, stdout=io.StringIO(), stderr=io.StringIO()))
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(search.main(["--samples", "300"]))
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in _runs()] + [0]

    unreached = {name for key, name in defined.items() if key not in seen}
    new = sorted(unreached - UNREACHED)
    assert not new, f"reached only by the tests: {new}"
    stale = sorted(UNREACHED - unreached)
    assert not stale, f"allowlisted, but reached or no longer defined: {stale}"

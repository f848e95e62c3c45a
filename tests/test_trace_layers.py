"""Every layer the benchmark traces names a function the package defines.

perfbench/tracing.py wraps each `module.function` of its LAYERS from outside
the package, and a name it cannot find becomes a missing layer whose metrics
read 0.  This test parses that file without importing it, so a rename in the
package fails here instead of zeroing a traced run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} assigns no LAYERS")


def test_every_traced_layer_is_a_package_function():
    layers = _layers()
    assert layers
    stale = []
    for name in layers:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"cblocks.{module_name}")
        if not callable(getattr(module, func_name, None)):
            stale.append(name)
    assert not stale, f"traced but not defined: {stale}"


def test_the_lr_cache_counts_are_readable():
    from cblocks import schur

    assert callable(getattr(schur._lr_mult, "cache_info", None))

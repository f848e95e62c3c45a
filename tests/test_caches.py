import importlib
import re
from itertools import combinations
from pathlib import Path

from cblocks import young
from cblocks.schur import _lr_walk

SRC = Path(__file__).resolve().parent.parent / "src" / "cblocks"

# The unbounded caches that predate the rule below.  Bounding one removes it
# from this list; nothing is added to it.
UNBOUNDED = set()

# The shape-form memos of young.shape_forms, each bounded at the 2**16
# shapes that young.shape_forms lets a box hold before it stops using them.
FORM_MEMOS = {"young._normal_memo", "young._complement_memo", "young._shift_memo"}

# The module-level tables, each with its bound in entries: the shape table of
# young.shape_table is a dict that is cleared before it passes its bound.
TABLES = {"young._SHAPES": 1 << 16}

# every way of making a functools cache in the source: lru_cache(...), a bare
# @lru_cache, cache(...) and @cache, with or without the module prefix
_CACHE_USE = re.compile(r"\blru_cache\b|@(functools\.)?cache\b|\bcache\(")


def test_every_cache_is_bounded_or_allowlisted():
    found = {}
    tables = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cblocks.{path.stem}")
        cached = {f"{path.stem}.{name}": value.cache_parameters()["maxsize"]
                  for name, value in vars(module).items()
                  if hasattr(value, "cache_parameters") and value.__module__ == module.__name__}
        uses = [line for line in path.read_text().splitlines()
                if _CACHE_USE.search(line) and not line.lstrip().startswith(("#", "from ", "import "))]
        # a cache made anywhere but on a module-level function escapes the check
        assert len(uses) == len(cached), (path.name, uses, sorted(cached))
        found.update(cached)
        tables |= {f"{path.stem}.{name}" for name, value in vars(module).items()
                   if type(value) in (dict, list, set) and not name.startswith("__")}
    unbounded = {name for name, maxsize in found.items() if maxsize is None}
    assert unbounded == UNBOUNDED
    assert {name: found.get(name) for name in FORM_MEMOS} == dict.fromkeys(FORM_MEMOS, 1 << 16)
    assert young._FORMS_BOUND == 1 << 16
    # a table the scan finds is one that holds state between calls
    assert tables == set(TABLES)
    assert young._SHAPES_BOUND == TABLES["young._SHAPES"]
    _assert_the_shape_table_stays_bounded()


def _assert_the_shape_table_stays_bounded():
    """Share more distinct shapes than the bound, in vectors of 1000, in one
    larger than the bound and in an LR walk with more constituents than the
    bound, and check the table's size after each."""
    saved = dict(young._SHAPES)
    bound = young._SHAPES_BOUND
    try:
        for start in range(0, bound + 5000, 1000):
            young.share_shapes({(i,): 1 for i in range(start, start + 1000)})
            assert len(young._SHAPES) <= bound
        vector = {(i, 1): 1 for i in range(bound + 1)}
        assert young.share_shapes(vector) == vector
        assert len(young._SHAPES) <= bound
        # s_stairs * s_(3) in 77 variables: one constituent per horizontal
        # strip of 3 cells (Pieri), a cells in row 1 and one in each of 3 - a
        # of rows 2..76, 70,376 in all
        stairs = list(range(75, 0, -1)) + [0]
        pieri = set()
        for a in range(4):
            for strip in combinations(range(1, 76), 3 - a):
                u = stairs[:]
                u[0] += a
                for i in strip:
                    u[i] += 1
                pieri.add(tuple(x for x in u if x))
        assert len(pieri) > bound
        young.share_shapes({(i, 2): 1 for i in range(1000)})    # the walk must clear these
        walked = _lr_walk(tuple(stairs[:-1]), (3,), 77)
        assert set(walked) == pieri and set(walked.values()) == {1}
        assert len(young._SHAPES) <= bound
    finally:
        young._SHAPES.clear()
        young._SHAPES.update(saved)

import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cblocks"

# The unbounded caches that predate the rule below.  Bounding one removes it
# from this list; nothing is added to it.
UNBOUNDED = {
    "schur._gl_character",
    "cb.level_weights",
    "cb._fusion_expand_cached",
    "qgrass._quantum_mult",
    "qgrass._orbit",
    "qgrass._orbit_mult",
}

# every way of making a functools cache in the source: lru_cache(...), a bare
# @lru_cache, cache(...) and @cache, with or without the module prefix
_CACHE_USE = re.compile(r"\blru_cache\b|@(functools\.)?cache\b|\bcache\(")


def test_every_cache_is_bounded_or_allowlisted():
    found = {}
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
    unbounded = {name for name, maxsize in found.items() if maxsize is None}
    assert unbounded == UNBOUNDED

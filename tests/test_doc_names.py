"""Every private name the package's prose cites, and every module-qualified
name the README cites, is one the package defines; every option the README's
command-line section cites is one a command takes; and the package's prose
names no benchmark workload.

A renamed or deleted helper or option otherwise lives on in the docstrings
and in the README, where nothing runs it.  A count of what one benchmark
list puts in a cache goes stale with every change to the code or the
workload, so such counts live in CHANGES.md and the BENCH_*.json files, not
in the package.
Like test_trace_layers.py, this parses the sources and imports nothing from
perfbench.
"""

import argparse
import ast
import importlib
import io
import json
import re
import tokenize
from pathlib import Path

from cblocks.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cblocks"

# an underscore name with two or more characters after the underscore; a
# name inside a longer identifier (rank_cb) or a dunder does not start one
PRIVATE = re.compile(r"\b_[A-Za-z0-9]\w+")
QUALIFIED = re.compile(r"\b(cb|cli|nefgeo|qgrass|schur|young)\.(\w+)")


def _prose(source):
    """The comments and the docstrings of one module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    texts = [t.string for t in tokens if t.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                texts.append(doc)
    return texts


def _module_names(source):
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_private_name_in_the_prose_is_defined():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    defined = set().union(*(_module_names(s) for s in sources.values()))
    stale = sorted({(stem, name) for stem, source in sources.items()
                    for text in _prose(source) for name in PRIVATE.findall(text)
                    if name not in defined})
    assert not stale, f"cited in a docstring or comment but not defined: {stale}"


def test_every_module_name_in_the_readme_is_defined():
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    cited = {m for span in re.findall(r"`([^`]+)`", text) for m in QUALIFIED.findall(span)}
    assert cited
    stale = sorted(f"{module}.{name}" for module, name in cited
                   if not hasattr(importlib.import_module(f"cblocks.{module}"), name))
    assert not stale, f"cited in README.md but not defined: {stale}"


def test_the_prose_names_no_benchmark_workload():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert workloads
    cited = sorted({(path.stem, name) for path in sorted(SRC.glob("*.py"))
                    for text in _prose(path.read_text())
                    for name in re.findall(r"`([^`]+)`", text) if name in workloads})
    assert not cited, f"a docstring or comment names a benchmark workload: {cited}"


def _stale_options(section):
    """The --options cited in `section`'s code spans and shell block that no
    cblocks subcommand takes; --r/--level/--weights counts as three."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {option for q in sub.choices.values() for option in q._option_string_actions}
    spans = re.findall(r"```.*?```", section, flags=re.S)
    spans += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.S))
    cited = {option for span in spans for option in re.findall(r"--\w[\w-]*", span)}
    return sorted(cited - known)


def test_every_option_in_the_readme_command_line_is_an_option():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert "--r/--level/--weights" in section and "```sh" in section
    assert _stale_options(section) == []
    # a flag the parser no longer takes is caught
    assert _stale_options("`rank --classical`") == ["--classical"]

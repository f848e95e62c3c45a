import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_search_rank_equality_runs():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "search_rank_equality.py"),
         "--samples", "300", "--seed", "0"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "samples                    300" in done.stdout.splitlines()


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["cb_rank"](scope["setup"]) == 7

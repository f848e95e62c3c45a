import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


SEARCH_300 = """\
samples                    300
above a vanishing bound    203
below both, ranks differ   40
below both, ranks equal    57

equal-rank hits by feature set:
      40  rank 0
      15  rank 0; self-dual multiset
       1  rank 1
       1  rank 0; level = critical
"""

SEARCH_2000 = """\
samples                    2000
above a vanishing bound    1437
below both, ranks differ   202
below both, ranks equal    361

equal-rank hits by feature set:
     279  rank 0
      74  rank 0; self-dual multiset
       4  rank 1
       2  rank 0; level = critical
       1  no obvious feature
       1  rank 1; level = critical

unexplained hits:
  sl3 level 3  [2w2,2w2,w2,w1,2w2,0]  rank 3, critical 4, theta 3
"""


def test_search_rank_equality_runs():
    script = str(REPO / "scripts" / "search_rank_equality.py")
    for extra, expected in ((["--samples", "300"], SEARCH_300), ([], SEARCH_2000)):
        done = subprocess.run([sys.executable, script, "--seed", "0"] + extra,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["cb_rank"](scope["setup"]) == 7


@pytest.mark.parametrize("bad", (["--max-rank", "0"], ["--max-level", "0"],
                                 ["--min-points", "7"], ["--samples", "-1"]))
def test_search_refuses_an_empty_range_or_a_negative_count(bad):
    script = str(REPO / "scripts" / "search_rank_equality.py")
    done = subprocess.run([sys.executable, script] + bad, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1].startswith("search_rank_equality.py: error: --")


def test_large_inputs_runs_its_smallest_row():
    script = str(REPO / "scripts" / "large_inputs.py")
    done = subprocess.run([sys.executable, script, "staircase_1200"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    line, = done.stdout.splitlines()
    assert re.fullmatch(r"staircase_1200 +exit 0  wall +[\d.]+ s  cpu +[\d.]+ s  "
                        r"max_rss +[\d.]+ MB  \| rank_classical 0", line), line

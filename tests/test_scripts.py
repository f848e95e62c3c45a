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

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,expected_line", [
    (["scripts/decomposition_table.py", "--max-n", "6", "--p", "3"],
     "     3,2   3       5  S = D[4,1] +> D[3,2]  (4 + 1, strip length 3)"),
    (["scripts/root_basis_survey.py", "--max-n", "6", "--p", "3", "4"],
     "all counts match the dimension formula"),
])
def test_script_runs(argv, expected_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert expected_line in result.stdout.splitlines()

"""scipy is imported where a solver runs, and nowhere else.

Each check runs in a fresh interpreter, since this test process has long
since loaded scipy through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skyselect

SRC = str(Path(skyselect.__file__).resolve().parent.parent)

D1_CSV = "id,a1,a2\na,1,5\nb,2,2\nc,5,1\nd,4,4\ne,3,3\n"
D3_CSV = "id,a1,a2,a3\na,1,5,3\nb,2,2,4\nc,5,1,2\nd,4,4,4\ne,3,3,1\n"


def _scipy_loaded(code: str, cwd) -> bool:
    """Run ``code`` in a new interpreter; whether it left scipy in sys.modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1] == "True"


def test_import_leaves_scipy_unloaded(tmp_path):
    assert not _scipy_loaded("import skyselect", tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "skyline", "--data", "d1.csv"],
        ["query", "nd", "--data", "d3.csv", "--region", "region.txt"],
        ["query", "ord", "--data", "d1.csv", "--weights", "0.5,0.5", "--m", "3"],
        ["query", "utk2", "--data", "d1.csv", "--k", "1", "--region", "band.txt"],
        ["compare", "--data", "d1.csv", "--k", "2", "--m", "3"],
        ["generate", "--dist", "anticorrelated", "--n", "4", "--d", "2", "--seed", "0",
         "--out", "g.csv"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_cli_commands_run_without_scipy(tmp_path, argv):
    (tmp_path / "d1.csv").write_text(D1_CSV)
    (tmp_path / "d3.csv").write_text(D3_CSV)
    (tmp_path / "region.txt").write_text("1 w1 - 1 w2 >= 0\n")
    (tmp_path / "band.txt").write_text("1 w1 >= 0.2\n1 w1 <= 0.3\n")
    code = f"from skyselect.cli import main\nassert main({argv!r}) == 0"
    assert not _scipy_loaded(code, tmp_path)


def test_polytope_po_in_three_dimensions_loads_scipy(tmp_path):
    code = (
        "from skyselect import LinearConstraint, WeightRegion, generate, po\n"
        "reg = WeightRegion(3, (LinearConstraint((1.0, -1.0, 0.0), 0.0),))\n"
        "assert po(generate('anticorrelated', 40, 3, 0), reg)\n"
    )
    assert _scipy_loaded(code, tmp_path)

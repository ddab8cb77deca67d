"""tools/ab_inprocess.py on this repository's own source tree, against
itself and against copies whose solver explores other trees or reports
other optima."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "ab_inprocess.py"
_SPEC = importlib.util.spec_from_file_location("ab_inprocess", _PATH)
ab_inprocess = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_inprocess)

SMALL = ["--workload", "dense-dfs", "--instances", "2", "--rounds", "1"]


def test_a_tree_against_itself_gives_identical_counts(capsys):
    assert ab_inprocess.main([str(ROOT), str(ROOT), *SMALL]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dense-dfs seed 0, 2 instances, 6 operations, 1 rounds"
    assert out[-1] == ("explored counts differ on 0 and optima on 0 of 6 "
                       "operations")


@pytest.mark.parametrize("old, new, status, summary", [
    # Branch on the first free vertex: other trees, the same optima.
    ("    return best\n", "    return sp.free_list[0]\n", 0,
     r"explored counts differ on [1-6] and optima on 0 of 6 operations"),
    # Report one more than the optimum found.
    ("optimum=self.best_value,", "optimum=self.best_value + 1,", 1,
     r"explored counts differ on 0 and optima on 6 of 6 operations"),
])
def test_a_changed_tree_is_reported(tmp_path, capsys, old, new, status,
                                    summary):
    shutil.copytree(ROOT / "src" / "bipart", tmp_path / "src" / "bipart")
    solver = tmp_path / "src" / "bipart" / "solver.py"
    text = solver.read_text()
    assert text.count(old) == 1
    solver.write_text(text.replace(old, new))
    assert ab_inprocess.main([str(ROOT), str(tmp_path), *SMALL]) == status
    out = capsys.readouterr().out.splitlines()
    assert re.fullmatch(summary, out[-1]), out


def test_a_directory_without_sources_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        ab_inprocess.main([str(ROOT), str(tmp_path), *SMALL])
    assert exc.value.code == 2
    assert "no src/bipart package" in capsys.readouterr().err

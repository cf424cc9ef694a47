"""One pass of each benchmark workload's config reproduces its pinned rows
(``tests/data/rows.json``, regenerated by ``tests/data/make_rows.py``):
integers exactly, floats to 1e-12 relative."""

import json
import os
import subprocess
import sys

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)

from make_rows import RTOL, diff, pinned, run_rows  # noqa: E402

with open(os.path.join(DATA, "rows.json")) as fh:
    PINNED = json.load(fh)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rows_match_the_pin(name):
    entry = PINNED[name]
    got = [pinned(r) for r in run_rows(entry["task"], entry["config"])]
    assert len(got) == len(entry["rows"])
    for row, want in zip(got, entry["rows"]):
        assert row.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, str):
                a, b = float.fromhex(row[key]), float.fromhex(value)
                assert abs(a - b) <= RTOL * abs(b), (name, want.get("level", want.get("iter")), key, a, b)
            else:
                assert row[key] == value, (name, key)


TINY = {"task": "converge",
        "config": {"surface": {"kind": "sphere", "radius": 1.0}, "method": "parametric",
                   "levels": [1, 2]}}


def test_diff_exits_1_when_a_row_breaks_the_pin(tmp_path, capsys):
    """``make_rows.py --diff`` exits 0 on its own fresh rows and on a float
    moved by 1e-13 relative, and 1 on an integer moved by one or a float
    moved by 1e-11 relative, marking the column that breaks the pin."""
    rows = [pinned(r) for r in run_rows(TINY["task"], TINY["config"])]

    def status(column, move):
        moved = [dict(r) for r in rows]
        if column is not None:
            value = moved[-1][column]
            moved[-1][column] = (value + move if isinstance(value, int)
                                 else (float.fromhex(value) * (1.0 + move)).hex())
        path = tmp_path / "pin.json"
        path.write_text(json.dumps({"tiny": dict(TINY, rows=moved)}))
        return diff(str(path)), path

    assert status(None, 0)[0] == 0
    assert status("err_H1", 1e-13)[0] == 0
    assert status("err_H1", 1e-11)[0] == 1
    assert "err_H1           1e-11  BREAKS THE PIN" in capsys.readouterr().out
    code, path = status("n_dof", 1)
    assert code == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, os.path.join(DATA, "make_rows.py"), "--diff", str(path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1 and "n_dof" in done.stdout and "BREAKS THE PIN" in done.stdout

"""One pass of each benchmark workload's config reproduces its pinned rows
(``tests/data/rows.json``, regenerated by ``tests/data/make_rows.py``):
integers exactly, floats to 1e-12 relative."""

import json
import os
import sys

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)

from make_rows import pinned, run_rows  # noqa: E402

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
                assert abs(a - b) <= 1e-12 * abs(b), (name, want.get("level", want.get("iter")), key, a, b)
            else:
                assert row[key] == value, (name, key)

"""Regenerate ``rows.json``: one pass of each benchmark workload's config.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_rows.py [OUTPUT]
    PYTHONPATH=src python tests/data/make_rows.py --diff [PIN]

OUTPUT defaults to ``tests/data/rows.json``; another path leaves the pin
alone, so two checkouts' rows can be compared byte for byte on one host.
``--diff`` writes nothing: it runs a fresh pass of each config that PIN
(default the pin) holds and prints, per workload and column, the largest
relative move of the fresh rows against PIN's, marking the moves that break
the pin (``tests/test_rows.py``): an integer that changes or a float that
moves by more than 1e-12 relative.  It exits 1 if any does, else 0.
The configs are read from ``perfbench/workloads.json`` and stored next to
the rows, so the pin stays self-contained.  Floats are written as
``float.hex`` strings, integers as they are; ``tests/test_rows.py`` checks
a fresh pass against this file.
"""

import argparse
import json
import math
import os
import sys

import beltrami

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# the largest relative move of a pinned float that ``tests/test_rows.py`` allows
RTOL = 1e-12
# the columns a row pins, where present; "level" and "iter" key the rows
COLUMNS = ("level", "iter", "n_dof", "iterations", "err_H1", "err_L2",
           "band_err_H1", "band_err_L2", "eta", "lambda", "beta", "mu",
           "max_distance", "max_normal_dev", "n_marked")


def run_rows(task, config):
    """The rows of one pass of ``config`` under ``task`` (converge or adapt)."""
    config = beltrami.RunConfig(config)
    if task == "adapt":
        return beltrami.run_adapt(config)[0]["rows"]
    return beltrami.run_convergence(config)["rows"]


def pinned(row):
    """The pinned columns of a row, floats as hex strings."""
    return {key: row[key].hex() if isinstance(row[key], float) else row[key]
            for key in COLUMNS if key in row}


def largest_moves(want_rows, got_rows):
    """Per pinned column, the largest |got - want| / |want| over the rows
    (0 where both are 0, inf where only want is); rows pair up in order and
    must carry one key set."""
    if len(got_rows) != len(want_rows):
        raise ValueError(f"{len(got_rows)} fresh rows against {len(want_rows)} pinned")
    moves = {}
    for got, want in zip(got_rows, want_rows):
        if got.keys() != want.keys():
            raise ValueError(f"fresh columns {sorted(got)} against pinned {sorted(want)}")
        for key, value in want.items():
            a, b = (float.fromhex(v) if isinstance(v, str) else float(v)
                    for v in (got[key], value))
            move = abs(a - b) / abs(b) if b else (0.0 if a == b else math.inf)
            moves[key] = max(moves.get(key, 0.0), move)
    return moves


def diff(path):
    """Print the largest relative move of a fresh pass against the pin, the
    ones that break it marked; returns the exit status, 1 if any does."""
    with open(path) as fh:
        pin = json.load(fh)
    status = 0
    for name, entry in pin.items():
        got = [pinned(r) for r in run_rows(entry["task"], entry["config"])]
        for key, move in largest_moves(entry["rows"], got).items():
            # floats are stored as hex strings; an integer may not move at all
            broken = move > (RTOL if isinstance(entry["rows"][0][key], str) else 0.0)
            status |= broken
            print(f"{name:22s} {key:16s} {move:.3g}" + ("  BREAKS THE PIN" if broken else ""))
    return status


def main(path):
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    out = {name: {"task": spec["task"], "config": spec["config"],
                  "rows": [pinned(r) for r in run_rows(spec["task"], spec["config"])]}
           for name, spec in workloads.items()}
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate or check the pinned rows.")
    parser.add_argument("path", nargs="?", default=os.path.join(HERE, "rows.json"),
                        help="the file written, or with --diff the pin read")
    parser.add_argument("--diff", action="store_true",
                        help="print the largest relative move against the pin; write nothing")
    args = parser.parse_args()
    sys.exit(diff(args.path) if args.diff else main(args.path))

"""Regenerate ``rows.json``: one pass of each benchmark workload's config.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_rows.py [OUTPUT]

OUTPUT defaults to ``tests/data/rows.json``; another path leaves the pin
alone, so two checkouts' rows can be compared byte for byte on one host.
The configs are read from ``perfbench/workloads.json`` and stored next to
the rows, so the pin stays self-contained.  Floats are written as
``float.hex`` strings, integers as they are; ``tests/test_rows.py`` checks
a fresh pass against this file.
"""

import json
import os
import sys

import beltrami

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
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


def main(path=os.path.join(HERE, "rows.json")):
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    out = {name: {"task": spec["task"], "config": spec["config"],
                  "rows": [pinned(r) for r in run_rows(spec["task"], spec["config"])]}
           for name, spec in workloads.items()}
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:2])

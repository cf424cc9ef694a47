"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

beltrami = run.import_package()
import tracer  # noqa: E402

BENCH = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
SPEC = run.load_json(os.path.join(HERE, "workloads.json"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def smallest(name):
    """The workload at its smallest level (adapt: one refinement round)."""
    spec = copy.deepcopy(SPEC["workloads"][name])
    spec.pop("windows")
    config = spec["config"]
    if spec["task"] == "adapt":
        config["iterations"] = 1
    else:
        config["levels"] = config["levels"][:1]
    return spec


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_metric(name, trace, capsys):
    values, attempted, failed = run.run_workload(
        name, smallest(name), SPEC["coverage"], seed=1, seconds=0,
        trace=bool(trace), rtol=SPEC["reference_rtol"])
    print(json.dumps(run.report(BENCH, values, attempted, failed, trace)))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def _patched_attributes():
    owners = [tracer._resolve(path) for path, _, _ in tracer.CALLS]
    found = {(id(o), a): o.__dict__[a] for o, (_, a, _) in zip(owners, tracer.CALLS)}
    for cls in tracer.SURFACE_CLASSES:
        for attr, value in cls.__dict__.items():
            found[(id(cls), attr)] = value
    found["round"] = beltrami.estimators.ParametricProblem
    return found


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_is_bit_identical(name):
    spec = smallest(name)
    config = beltrami.RunConfig(spec["config"])
    before = _patched_attributes()
    plain = run.solve(beltrami, spec["task"], config)
    t = tracer.Tracer()
    with tracer.traced(t), t.run_pass(0):
        traced = run.solve(beltrami, spec["task"], config)
    assert _patched_attributes() == before
    assert len(t.spans) > 1 and not t.stack
    for a, b in zip(plain["rows"], traced["rows"], strict=True):
        assert a["err_H1"] == b["err_H1"]
        assert a["err_L2"] == b["err_L2"]


def test_check_counts_a_wrong_error():
    spec = SPEC["workloads"]["parametric-ellipsoid"]
    result = run.solve(beltrami, "converge", beltrami.RunConfig(spec["config"]))
    tally = run.Tally(spec, SPEC["reference_rtol"])
    tally.record(result)
    assert (tally.attempted, tally.failed) == (3, 0)
    result["rows"][1]["err_L2"] *= 1.001
    tally.record(result)
    assert (tally.attempted, tally.failed) == (6, 1)
    result["eoc"]["eoc_H1"][-1] = 0.5
    tally.record(result)
    assert (tally.attempted, tally.failed) == (9, 4)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

"""Benchmark of the beltrami solvers on fixed refinement workloads.

Run from the repository root:

    python3 perfbench/run.py --workload trace-sphere --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each pass runs one workload through the public API (``run_convergence``
or ``run_adapt``, the path the ``converge`` and ``adapt`` commands take)
and checks its numbers against the windows and reference errors in
``workloads.json``.  With ``--trace 0`` the passes are timed plainly;
with ``--trace 1`` every other pass runs under the per-layer tracer of
``tracer.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where the metrics are
the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries of
``BENCHMARK.json``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One process solves one pass at a time; a single BLAS thread keeps the
# run from competing with itself for cores.
BLAS_THREADS = "1"
SETUP_REPEATS = 5
METHODS = ("parametric", "trace", "narrowband")

# Fresh-process set-up: import the package and validate the config.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import beltrami
beltrami.RunConfig(json.loads(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def import_package():
    """Import beltrami from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "beltrami", "__init__.py")):
        raise SystemExit(f"perfbench: no beltrami package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import beltrami

    if not os.path.abspath(beltrami.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: beltrami imported from {beltrami.__file__}")
    return beltrami


def solve(beltrami, task, config):
    if task == "adapt":
        return beltrami.run_adapt(config)[0]
    return beltrami.run_convergence(config)


class Tally:
    """Solves attempted and failed, counted per ladder level or adapt round."""

    def __init__(self, spec, rtol):
        self.spec = spec
        self.rtol = rtol
        self.key = "iter" if spec["task"] == "adapt" else "level"
        self.reference = {r[self.key]: r for r in spec["reference"]}
        config = spec["config"]
        self.solves = (config["iterations"] + 1 if spec["task"] == "adapt"
                       else len(config["levels"]))
        self.attempted = 0
        self.failed = 0

    def problems(self, result):
        """Misses of one pass: ({level or round: [misses]}, [pass misses])."""
        rows, whole = {}, []
        if len(result["rows"]) != self.solves:
            whole.append(f"{len(result['rows'])} solves, expected {self.solves}")
        for row in result["rows"]:
            at = row[self.key]
            ref = self.reference.get(at)
            if ref is None:
                rows.setdefault(at, []).append("no reference")
                continue
            if row["n_dof"] != ref["n_dof"]:
                rows.setdefault(at, []).append(
                    f"n_dof {row['n_dof']} differs from reference {ref['n_dof']}")
            for name in ("err_H1", "err_L2"):
                got, want = row[name], ref[name]
                if not abs(got - want) <= self.rtol * abs(want):
                    rows.setdefault(at, []).append(
                        f"{name} {got!r} differs from reference {want!r}")
        last = self.spec.get("windowed_eocs", 1)
        for name, (lo, hi) in self.spec.get("windows", {}).items():
            if name == "slope_H1_vs_dofs":
                values = [result[name]]
            else:
                values = result["eoc"].get(name, [])[-last:]
            if not values or not all(lo <= v <= hi for v in values):
                whole.append(f"{name} {values} outside [{lo}, {hi}]")
        return rows, whole

    def record(self, result):
        """Count one pass; a pass-wide miss fails every solve of the pass."""
        self.attempted += self.solves
        if result is None:
            self.failed += self.solves
            return
        rows, whole = self.problems(result)
        for at, misses in rows.items():
            for miss in misses:
                print(f"check failed: {self.key} {at}: {miss}", file=sys.stderr)
        for miss in whole:
            print(f"check failed: {miss}", file=sys.stderr)
        self.failed += self.solves if whole else len(rows)


def one_pass(beltrami, spec, config, tally, tracer=None, pass_id=0):
    """Run and check one pass; returns its wall time in seconds."""
    from tracer import traced

    t0 = time.perf_counter()
    result = None
    try:
        if tracer is None:
            result = solve(beltrami, spec["task"], config)
        else:
            with traced(tracer), tracer.run_pass(pass_id):
                result = solve(beltrami, spec["task"], config)
    except Exception:  # a failing pass is counted; the run goes on
        traceback.print_exc()
    wall = time.perf_counter() - t0
    if tally is not None:
        tally.record(result)
    if tracer is not None:
        root = tracer.spans[tracer.first]
        wall = root[5] - root[4]
    return wall


def measure_setup(config):
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, json.dumps(config)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def coverage_probe(beltrami, probe, tally):
    """Every method x surface pair once, untimed, at a small size.

    A pair that fails outside ``known_gaps`` counts as a failed solve.
    Returns the number of pairs that ran.
    """
    ok = 0
    for method in METHODS:
        for kind, surface in probe["surfaces"].items():
            pair = f"{method}/{kind}"
            level = (probe["parametric_level"] if method == "parametric"
                     else probe["cells"])
            config = beltrami.RunConfig(
                {"surface": surface, "method": method, "levels": [level]})
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    beltrami.run_convergence(config)
                outcome = "ok"
            except beltrami.BeltramiError as exc:
                outcome = type(exc).__name__
            known = probe["known_gaps"].get(pair)
            note = ""
            if outcome != "ok" and known is None:
                tally.failed += 1
                note = " (unexpected)"
            elif known is not None and outcome != known:
                note = f" (known gap was {known})"
            ok += outcome == "ok"
            tally.attempted += 1
            print(f"coverage {pair}: {outcome}{note}")
    return ok


class ReferenceKernel:
    """A fixed numpy workload timed next to every pass.

    A shared host's speed can drift by tens of percent within minutes,
    alike for the solver and for this kernel, so a pass time divided by
    the kernel times around it repeats far better than the pass time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.random(300_000)
        self.m = rng.random((20_000, 3, 3))
        self.v = rng.random((20_000, 3))

    def __call__(self):
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(10):
            np.sort(np.sqrt(self.a * self.a + 1.0))
            np.einsum("nij,nj->ni", self.m, self.v)
            np.unique((self.a * 1000.0).astype(np.int64))
        return time.perf_counter() - t0


def upper_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def run_workload(name, spec, coverage, seed, seconds, trace, rtol):
    """Measure one workload; returns (metric values, attempted, failed)."""
    beltrami = import_package()
    from tracer import Tracer, pass_metrics

    data = dict(spec["config"], seed=seed)
    config = beltrami.RunConfig(data)
    tally = Tally(spec, rtol)
    print(f"workload {name}: seed {seed}, {seconds} s, trace {int(trace)}")
    print(f"config {json.dumps(data, sort_keys=True)}")
    print("threads " + " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
          + f"; cpus {os.cpu_count()}; python {platform.python_version()}")

    values = {}
    if not trace:
        setup = measure_setup(data)
        values["setup_s"] = statistics.median(setup)
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))

    # The untimed warm-up pass also measures the peak of memory that
    # Python and numpy allocate; unlike the resident set it does not
    # depend on how the C heap happens to fragment.
    tracemalloc.start()
    one_pass(beltrami, spec, config, None)
    peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    tracer = Tracer() if trace else None
    kernel = None if trace else ReferenceKernel()
    plain, traced_walls, layers, kernels = [], [], [], []
    start = time.perf_counter()
    if kernel:
        kernels.append(kernel())
    while (not plain or (trace and not traced_walls)
           or time.perf_counter() - start < seconds):
        if trace and len(plain) > len(traced_walls):
            pass_id = len(traced_walls)
            traced_walls.append(one_pass(beltrami, spec, config, tally,
                                         tracer, pass_id))
            layers.append(pass_metrics(tracer.spans[tracer.first:],
                                       tracer.counts))
        else:
            plain.append(one_pass(beltrami, spec, config, tally))
            if kernel:
                kernels.append(kernel())

    print("pass wall_s " + " ".join(f"{w:.4f}" for w in plain))
    print(f"wall_s {statistics.median(plain):.6f} median of {len(plain)} passes")
    if trace:
        values["wall_s"] = statistics.median(plain)
        print("traced pass wall_s " + " ".join(f"{w:.4f}" for w in traced_walls))
        for key in layers[0]:
            values[key] = statistics.median(p[key] for p in layers)
        values["tracing.overhead_s"] = (statistics.median(traced_walls)
                                        - statistics.median(plain))
        values["coverage.pairs_ok"] = coverage_probe(beltrami, coverage, tally)
        write_trace(name, seed, tracer, traced_walls)
        print_layers(values, tracer)
    else:
        # each pass against the mean of the kernel times just before and after
        ratios = [w / (0.5 * (k0 + k1))
                  for w, k0, k1 in zip(plain, kernels, kernels[1:])]
        print(f"reference kernel {statistics.median(kernels):.6f} s median")
        values["wall_ref"] = statistics.median(ratios)
        values["wall_ref_p75"] = upper_quartile(ratios)
        values["peak_alloc_mb"] = peak_alloc_mb
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    frac = tally.failed / tally.attempted
    print(f"passes {len(plain)} plain, {len(traced_walls)} traced; "
          f"solves {tally.attempted}, failed_frac {frac:.4f}")
    return values, tally.attempted, tally.failed


def write_trace(name, seed, tracer, walls):
    """All spans of the run, kept in memory until now."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    t0 = tracer.spans[0][4]
    spans = [[p, i, parent, n, s - t0, e - t0]
             for p, i, parent, n, s, e in tracer.spans]
    path = os.path.join(out, f"trace-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "pass_wall_s": walls,
                   "span_fields": ["pass", "id", "parent", "name", "start",
                                   "end"],
                   "spans": spans}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def print_layers(values, tracer):
    from tracer import LAYERS

    print("layer self time (median traced pass):")
    for layer in LAYERS:
        print(f"  {layer:<11} {values[layer + '.self_s']:9.4f} s "
              f"{100 * values[layer + '.share']:6.1f} %")
    levels = [s for s in tracer.spans[tracer.first:] if s[3] == "harness.level"]
    print("last traced pass per level: "
          + " ".join(f"{s[5] - s[4]:.4f}" for s in levels))


def run_all(args, names):
    """Each workload in a fresh process, then one summary table."""
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited {out.returncode}")
        results[name] = json.loads(lines[-1])
        wall = next(line for line in lines if line.startswith("wall_s "))
        results[name]["wall_s"] = float(wall.split()[1])
    if not args.trace:
        print(f"{'workload':<22}{'wall_s':>8}{'wall_ref':>10}{'setup_s':>9}"
              f"{'peak_alloc_mb':>15}{'peak_rss_mb':>13}{'failed_frac':>13}")
        for name, r in results.items():
            m = {k: v["value"] for k, v in r["metrics"].items()}
            print(f"{name:<22}{r['wall_s']:>8.4f}{m['wall_ref']:>10.4f}"
                  f"{m['setup_s']:>9.4f}{m['peak_alloc_mb']:>15.2f}"
                  f"{m['peak_rss_mb']:>13.1f}"
                  f"{r['failed'] / r['attempted']:>13.4f}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }


def report(bench, values, attempted, failed, trace):
    """The result line: every metric BENCHMARK.json lists for this mode."""
    listed = bench["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "workloads.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    if args.workload == "all":
        print(json.dumps(run_all(args, names)))
        return 0
    values, attempted, failed = run_workload(
        args.workload, spec["workloads"][args.workload], spec["coverage"],
        args.seed, args.seconds, bool(args.trace), spec["reference_rtol"])
    print(json.dumps(report(bench, values, attempted, failed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

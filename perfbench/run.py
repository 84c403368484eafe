"""Benchmark of onestep's user-facing commands, one workload per process.

    python3 perfbench/run.py --workload verhulst --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; onestep is imported from its
``src`` directory.  One run:

1. times set-up (cold ``import onestep`` plus writing the input files)
   in fresh child processes and keeps the median;
2. runs every op once as a warm-up under the full correctness gate;
3. runs the ops in turn, in batches of at least BATCH_SECONDS, until
   ``--seconds`` have passed, and reports the median time of each.
   With ``--trace 1`` every op also runs once per turn under the layer
   tracer, and the run reports the per-layer metrics instead of the
   end-to-end ones.

Times are rescaled for the host's speed drift (see speed.py).  The last
line of standard output is the result object; the line before it, and
``.perfbench/results/``, hold the details: environment, sample counts,
wall times, output hashes and any failures.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads (here or in a child).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed
from ops import CLI_OPS, OPS, Runner
from tracer import Tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
# An op repeats within a batch until this much of it has been timed, so
# millisecond ops get enough samples for a steady median.
BATCH_SECONDS = 0.3

_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import onestep
from ops import write_inputs
from workloads import WORKLOADS
write_inputs(WORKLOADS[sys.argv[3]], __import__("pathlib").Path(sys.argv[4]))
print(start, time.perf_counter() - start)
"""

END_TO_END = {"derive": "derive_s", "simulate_em": "simulate_em_s",
              "simulate_ssa": "simulate_ssa_s", "check": "check_s",
              "oracle": "oracle_s"}


def measure_setup(workload: Workload, work: Path) -> list[tuple[float, float]]:
    """(start, seconds) of set-up in each of SETUP_REPEATS children."""
    samples = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE),
             workload.name, str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        start, seconds = map(float, done.stdout.split()[-2:])
        samples.append((start, seconds))
    return samples


def import_onestep():
    sys.path.insert(0, str(SRC))
    import onestep
    if SRC.resolve() not in Path(onestep.__file__).resolve().parents:
        raise ImportError(f"onestep was imported from {onestep.__file__}, "
                          f"not from {SRC}")
    return onestep


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 1.0


def _median(values) -> float:
    finite = [v for v in values if v == v]
    return statistics.median(finite) if finite else 0.0


def _summary(values) -> dict:
    finite = [v for v in values if v == v]
    return {"samples": len(values), "median": _median(values),
            "min": min(finite, default=0.0), "max": max(finite, default=0.0)}


def _median_dicts(dicts) -> dict:
    names = sorted({name for d in dicts for name in d})
    return {name: _median([d.get(name, 0.0) for d in dicts])
            for name in names}


def measure_ops(runner: Runner, seconds: float, trace: bool):
    """Run batches of each op in turn until `seconds` have passed and
    every op has at least one batch.  Returns the results of each op
    and, when tracing, one (tracer, result) per traced op run."""
    results = {op: [] for op in OPS}
    traced = {op: [] for op in OPS}
    deadline = time.perf_counter() + seconds
    for op in itertools.cycle(OPS):
        if time.perf_counter() >= deadline and all(results.values()):
            break
        gc.collect()
        spent = 0.0
        while spent < BATCH_SECONDS:
            results[op].append(runner.run(op))
            spent += results[op][-1].seconds
            if results[op][-1].error is not None:
                break
        if trace:
            gc.collect()
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced[op].append((tracer, runner.run(op, tracer)))
            finally:
                tracer.uninstall()
            tracer.flush()
    return results, traced


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    with speed.SpeedProbes() as probes:
        setup_runs = measure_setup(workload, work)
        onestep = import_onestep()
        runner = Runner(workload, seed, work)
        for op in OPS:
            runner.run(op)
        z = runner.check_ssa_against_oracle()
        results, traced = measure_ops(runner, seconds, trace)

    def rescaled(r):
        if r.error is not None:
            return math.nan
        return probes.rescale(r.start, r.seconds)

    setup = [probes.rescale(start, s) for start, s in setup_runs]
    setup_wall = [s for _, s in setup_runs]
    times = {op: [rescaled(r) for r in rs] for op, rs in results.items()}
    wall = {op: [r.seconds for r in rs] for op, rs in results.items()}
    traced = {op: [(tr, rescaled(r), r.seconds) for tr, r in runs]
              for op, runs in traced.items()}

    if trace:
        rounds = [layers.round_metrics(
                      {op: (tr, _ratio(scaled, seconds))
                       for op, (tr, scaled, seconds) in zip(OPS, runs)},
                      CLI_OPS)
                  for runs in zip(*traced.values())]
        values = {name: _median([r[name] for r in rounds])
                  for name in rounds[0]}
        traced_median = {op: _median([scaled for _, scaled, _ in traced[op]])
                         for op in OPS}
        for op in OPS:
            values[f"trace.overhead_ratio.{op}"] = _ratio(
                traced_median[op], _median(times[op]))
        values["trace.overhead_ratio"] = _ratio(
            sum(traced_median.values()), sum(map(_median, times.values())))
    else:
        values = {END_TO_END[op]: _median(times[op]) for op in OPS}
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)

    units = _units()
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }
    details = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "onestep": onestep.__version__,
        "environment": environment(),
        "error_rate": runner.failed / runner.attempted,
        "errors": runner.errors,
        "probe_reference_s": speed.REFERENCE_S,
        "setup_s": _summary(setup),
        "setup_wall": _summary(setup_wall),
        "ops": {op: _summary(times[op]) for op in OPS},
        "ops_wall": {op: _summary(wall[op]) for op in OPS},
        "ssa_oracle_max_abs_z": z,
        "output_sha256": runner.hashes,
        "absent_hooks": sorted({name for runs in traced.values()
                                for tr, _, _ in runs for name in tr.absent}),
    }
    if trace:
        details["layer_s"] = {
            op: _median_dicts([layers.layer_times(tr, _ratio(scaled, seconds))
                               for tr, scaled, seconds in runs])
            for op, runs in traced.items()}
        details["spans"] = {op: [tr.records() for tr, _, _ in runs]
                            for op, runs in traced.items()}
    return result, details


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onestep" / "__init__.py").is_file():
        print(f"error: no onestep sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, details = run(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(
        json.dumps({"result": result, "details": details}) + "\n")
    details.pop("spans", None)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

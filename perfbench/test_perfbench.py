"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench
"""

import json
from dataclasses import replace

import pytest

import run as bench
from ops import Runner
from tracer import Tracer
from workloads import VERHULST

bench.import_onestep()
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
# The only metrics that may read 0: a scalar-noise workload never calls
# matrix_sqrt_psd, a path that never reaches zero is never clamped, and
# the oracle may lose no mass at all.  Every other metric is positive.
MAY_BE_ZERO = {"sim.matrix_sqrt_calls", "sim.matrix_sqrt_s",
               "sim.em.clamp_events", "cme.leaked_mass"}
TINY = replace(VERHULST, t_final=0.2, dt=1e-2, trajectories=20,
               grid_points=5)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_every_metric_is_emitted(tmp_path, trace, section):
    result, details = bench.run(TINY, 3, 0, trace, tmp_path)
    assert details["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(bench.OPS)
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if name in MAY_BE_ZERO:
            assert metric["value"] >= 0, name
        else:
            assert metric["value"] > 0, name
    assert details["absent_hooks"] == []


def _flip_last_digit(path):
    data = bytearray(path.read_bytes())
    data[-2] ^= 1                       # the last byte is the newline
    path.write_bytes(bytes(data))


def _write_nan(path):
    text = path.read_text()
    head, _, value = text.rstrip("\n").rpartition(",")
    path.write_text(f"{head},nan\n")


@pytest.mark.parametrize("corrupt", [_flip_last_digit, _write_nan])
@pytest.mark.parametrize("warm", [False, True])
def test_corrupted_simulate_output_is_a_failed_op(tmp_path, monkeypatch,
                                                  corrupt, warm):
    runner = Runner(TINY, 3, tmp_path)
    if warm:                            # the clean first run sets the hashes
        assert runner.run("simulate_em").error is None
    simulate = runner._simulate_em

    def corrupted():
        start, seconds, out = simulate()
        corrupt(out / f"{TINY.name}.trajectories.csv")
        return start, seconds, out

    monkeypatch.setattr(runner, "_simulate_em", corrupted)
    assert runner.run("simulate_em").error is not None
    assert runner.failed == 1
    assert runner.attempted == 1 + warm


def test_missing_hooks_are_recorded_not_fatal():
    tracer = Tracer()
    tracer.install("onestep.cli", "no_such_function", lambda fn: fn)
    tracer.install("onestep.no_such_module", "f", lambda fn: fn)
    assert tracer.absent == ["onestep.cli.no_such_function",
                             "onestep.no_such_module.f"]
    tracer.uninstall()

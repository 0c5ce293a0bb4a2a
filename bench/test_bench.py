"""Tests of the benchmark itself: its checks reject wrong answers, its
counters repeat, its spans cover the layers, and its driver never
imports reeskit.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def child(workload, trace=False, **fields):
    spec = dict(fields, root=ROOT, workload=workload, seed=0,
                setup_only=False, trace=trace)
    return run.run_child(spec, run._clock() + 170)


def deterministic(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] != "s" and name != "trace.overhead_ratio"}


# -- the checks are live ---------------------------------------------------------


def test_systems_check_rejects_wrong_bases():
    pytest.importorskip("sympy")
    import random
    spec = {"inputs": [workloads.cyclic(4), workloads.dense_system(
        random.Random(1), (2, 2, 2), 0)]}
    refs = [run.sympy_reference(s) for s in spec["inputs"]]
    sample = child("groebner-systems", **spec)
    assert run.check_sample("groebner-systems", sample, spec, refs) == []
    bad = copy.deepcopy(sample)
    bad["rows"][0]["lines"].pop()
    assert len(run.check_sample("groebner-systems", bad, spec, refs)) == 1
    bad = copy.deepcopy(sample)
    line = bad["rows"][0]["lines"][-1]
    i = max(i for i, ch in enumerate(line) if ch.isdigit())
    bad["rows"][0]["lines"][-1] = line[:i] + str((int(line[i]) + 1) % 10) + \
        line[i + 1:]
    assert len(run.check_sample("groebner-systems", bad, spec, refs)) == 1
    bad = copy.deepcopy(sample)
    bad["rows"][0]["code"] = 1
    assert len(run.check_sample("groebner-systems", bad, spec, refs)) == 1


def test_curve_check_rejects_wrong_answers():
    spec = {"inputs": workloads.curve_instances(0)[:12]}
    sample = child("curve-invariants", **spec)
    assert run.check_sample("curve-invariants", sample, spec, None) == []
    for field, change in (("id", 1), ("rn", 1), ("rt", 5), ("id", None)):
        bad = copy.deepcopy(sample)
        out = bad["rows"][4]["out"]
        out[field] = None if change is None else out[field] + change
        assert len(run.check_sample("curve-invariants", bad, spec,
                                    None)) == 1, field


def test_curve_check_rejects_exceptions():
    spec = {"inputs": workloads.curve_instances(0)[:2]}
    sample = child("curve-invariants", **spec)
    sample["rows"][1]["error"] = "Traceback: PolyError"
    assert len(run.check_sample("curve-invariants", sample, spec, None)) == 1


# -- the trace -------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["groebner-systems", "curve-invariants"])
def test_traced_counts_repeat_and_cover_layers(workload, monkeypatch,
                                               capsys):
    monkeypatch.chdir(ROOT)
    args = ["--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", "1"]
    first, second = run.run(args), run.run(args)
    assert first["correct"] and second["correct"]
    assert deterministic(first["metrics"]) == deterministic(second["metrics"])
    assert "recorded no span" not in capsys.readouterr().err
    assert "reeskit" not in sys.modules


def test_absent_function_is_left_out_not_zero(capsys):
    t = tracer.Tracer()
    for name, fid, _ in tracer.FUNCTION_METRICS:
        t.functions[fid] = None
    for needs in tracer.DERIVED_METRICS.values():
        t.functions.update(dict.fromkeys(needs))
    del t.functions["rees.rees_kernel"]
    metrics = t.metrics()
    assert "rees.rees_kernel.calls" not in metrics
    assert "rees.rees_kernel.s" not in metrics
    assert metrics["rees.relation_type.s"] == 0
    assert "rees.rees_kernel.calls is absent" in capsys.readouterr().err


# -- isolation and the contract ----------------------------------------------------


def test_driver_never_imports_reeskit(monkeypatch):
    monkeypatch.chdir(ROOT)
    result = run.run(["--workload", "curve-invariants", "--seed", "3",
                      "--seconds", "0"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.curve_instances(3))
    assert "reeskit" not in sys.modules


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.EXPECTED_SPANS)
    assert [m["name"] for m in spec["per_layer"]] == (
        tracer.metric_names() + ["trace.overhead_ratio"])
    sample = {"setup_s": 0.1, "total_s": 1.0, "peak_rss_mb": 20.0,
              "cal_ms": 0.8, "rows": [{"ms": i + 1.0, "cal_ms": 0.8} for i in range(10)]}
    assert [m["name"] for m in spec["end_to_end"]] == list(
        run.end_to_end([{"setup_s": 0.1, "cal_ms": 0.8}], [sample]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curve-invariants",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- calibration -------------------------------------------------------------------


def test_calibrator_takes_ticks_out_and_averages_them():
    import child
    cal = child.Calibrator()
    cal.starts, cal.ends = [1.0, 2.0, 3.0], [1.5, 2.25, 3.125]
    assert cal.stolen(0.0, 4.0) == 0.875
    assert cal.stolen(1.25, 2.125) == 0.25 + 0.125
    assert cal.stolen(1.6, 1.9) == 0
    assert cal.kernel_ms(1.9, 2.1) == 250
    assert cal.kernel_ms(1.6, 1.9) is None
    rows = [{"t0": 1.25, "t1": 2.125}, {"t0": 4.0, "t1": 5.0}]
    total, cal_ms = cal.settle(rows, 0.0, 5.0)
    assert total == 5.0 - 0.875 and cal_ms == 875 / 3
    assert rows[0]["ms"] == 875 - 375 and rows[0]["cal_ms"] == 375
    assert rows[1]["ms"] == 1000 and rows[1]["cal_ms"] == cal_ms


def test_times_scale_with_the_kernel():
    fast = {"setup_s": 0.1, "total_s": 1.0, "peak_rss_mb": 20.0,
            "cal_ms": run.CAL_REF_MS,
            "rows": [{"ms": ms, "cal_ms": run.CAL_REF_MS}
                     for ms in (10.0, 30.0)]}
    slow = copy.deepcopy(fast)
    slow["total_s"], slow["setup_s"], slow["cal_ms"] = 2.0, 0.2, 1.6
    for row in slow["rows"]:
        row["ms"], row["cal_ms"] = 2 * row["ms"], 2 * row["cal_ms"]
    assert run.end_to_end([fast], [fast]) == run.end_to_end([slow], [slow])

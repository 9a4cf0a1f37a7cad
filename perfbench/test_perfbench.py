"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hfstab import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Every metric prints by name with its unit

def test_metric_tables_match_benchmark_json():
    assert bench.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert bench.per_layer_units() == {m["name"]: m["unit"]
                                       for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("trace,table", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_with_unit(trace, table):
    res = _run_bench("--workload", "screen", "--seed", "3", "--seconds",
                     "0.1", "--trace", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[table]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float))
               and not isinstance(v["value"], bool)
               for v in res["metrics"].values())


# --------------------------------------------------------------------------
# Corrupted outputs count as failures

class FakeLauncher:
    def __init__(self, rc=0):
        self.rc, self.calls = rc, []

    def run(self, cmd, stderr_path, ready=False):
        self.calls.append(cmd)
        Path(stderr_path).write_text("")
        return {"rc": self.rc, "wall": 0.0, "cpu": 0.0, "rss_mb": 1.0,
                "ready_s": None}


def _analyze_report(tmp_path, model="water-waves", h=1.0):
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--model", model, "--h", repr(h),
                     "--n-max", "30", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_shifted_event_mu_fails(tmp_path):
    report = _analyze_report(tmp_path)
    workloads.check_events(report, "water-waves", {"h": 1.0}, 30)
    report["events"][3]["mu"] += 1e-6
    with pytest.raises(workloads.CheckFailed, match="matches no reference"):
        workloads.check_events(report, "water-waves", {"h": 1.0}, 30)


def test_flipped_verdict_fails(tmp_path):
    report = _analyze_report(tmp_path)
    e = next(e for e in report["events"]
             if e["verdict"] == "potential-instability")
    e["verdict"] = "no-instability-possible"
    with pytest.raises(workloads.CheckFailed):
        workloads.check_events(report, "water-waves", {"h": 1.0}, 30)


def _synthetic_spectrum(tmp_path, bubbles):
    """A fifth-order CSV with a 20-point base grid and six 3-point windows."""
    disp = oracle.dispersion("fifth-order-scalar")
    windows = sorted({round(m, 12) for *_, m, im in
                      oracle.collisions(disp, disp.speed(), 3)
                      if abs(im) >= oracle.LAMBDA_TOL for m in (m, -m)})
    mus = np.concatenate([-0.5 + (np.arange(20) + 0.5) / 20] +
                         [np.linspace(c - 5e-3, c + 5e-3, 3) for c in windows])
    mus = np.repeat(np.unique(mus), 5)
    rows = np.column_stack([mus, np.zeros_like(mus), np.arange(mus.size)])
    csv = tmp_path / "s.csv"
    np.savetxt(csv, rows, delimiter=",", header="mu,re_lambda,im_lambda",
               comments="")
    return csv, {"bubbles": bubbles}


def _bubble(im, growth):
    return {"center_im": im, "max_growth": growth, "mu_support": [0.1, 0.1],
            "im_support": [im, im]}


def _check_synthetic(csv, report):
    return workloads.check_spectrum(csv, report, "fifth-order-scalar", {}, 3,
                                    20, 10, 2, 0.02, [workloads.FIFTH_BUBBLE])


def test_dropped_or_wrong_bubble_fails(tmp_path):
    genuine = [_bubble(0.2277, 1.55e-4), _bubble(-0.2277, 1.55e-4)]
    csv, report = _synthetic_spectrum(tmp_path, genuine + [_bubble(2e8, 3e-7)])
    facts = _check_synthetic(csv, report)
    assert facts["spurious_bubbles"] == 1 and facts["matched_bubbles"] == 2

    with pytest.raises(workloads.CheckFailed, match="not found"):
        _check_synthetic(csv, {"bubbles": genuine[:1]})
    with pytest.raises(workloads.CheckFailed, match="grows"):
        _check_synthetic(csv, {"bubbles": [_bubble(0.2277, 1.2e-4), genuine[1]]})


def test_truncated_csv_fails(tmp_path):
    csv, report = _synthetic_spectrum(
        tmp_path, [_bubble(0.2277, 1.55e-4), _bubble(-0.2277, 1.55e-4)])
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(workloads.CheckFailed, match="slices"):
        _check_synthetic(csv, report)


def test_failed_check_and_exit_count_in_failed(tmp_path):
    def bad_check(path):
        raise workloads.CheckFailed("corrupted")
    inv = workloads.Invocation("x", "cli", ["analyze"], tmp_path / "x", bad_check)
    wl = workloads.Workload("screen", {}, [inv, inv])
    tally = {"attempted": 0, "failed": 0, "errors": []}
    bench.run_pass(FakeLauncher(), wl, tmp_path, tally)
    assert (tally["attempted"], tally["failed"]) == (2, 2)

    ok = workloads.Invocation("y", "cli", ["analyze"], tmp_path / "y",
                              lambda path: {})
    tally = {"attempted": 0, "failed": 0, "errors": []}
    bench.run_pass(FakeLauncher(rc=3), workloads.Workload("screen", {}, [ok]),
                   tmp_path, tally)
    assert (tally["attempted"], tally["failed"]) == (1, 1)


# --------------------------------------------------------------------------
# Probes

def test_missing_probe_target_is_reported_absent():
    tr = tracer.Tracer()
    tracer.attach(tr, [tracer.Probe("hfstab.hill:no_such_function",
                                    "hill.eig", "hill", kind="timer"),
                       tracer.Probe("no_such_module:f", "report.csv", "report")])
    assert tr.absent == ["hill.eig", "report.csv"]
    dump = {"spans": [], "counters": {}, "absent": tr.absent}
    metrics, absent = bench.layer_metrics([("x", dump)], [])
    assert absent == ["hill.eig", "report.csv"]
    assert not {"hill.eig_s", "hill.eig_calls", "hill.eig_gflops",
                "report.bytes"} & set(metrics)
    assert "collisions.find_s" in metrics


def test_probe_whose_target_changed_shape_is_reported_absent():
    tr = tracer.Tracer()
    wrapped = tr.span(lambda: [1, 2], "collisions.find", "collisions",
                      on_result=tracer._collisions_result)
    assert wrapped() == [1, 2]
    assert tr.absent == ["collisions.find"]


def test_self_times_subtract_children_and_other_layers():
    spans = [
        {"id": 0, "name": "cli.main", "layer": "cli", "start": 0.0, "end": 10.0,
         "parent": None, "nested": {}},
        {"id": 1, "name": "collisions.find", "layer": "collisions",
         "start": 1.0, "end": 7.0, "parent": 0,
         "nested": {"models": 2.0, "collisions": 1.0}},
    ]
    selfs = bench.self_times(spans)
    assert selfs == {"cli": 4.0, "collisions": 4.0, "models": 2.0}


def test_mode_tuple_formula_matches_enumeration():
    for branches in (1, 2):
        for n_max in (1, 3, 30):
            rows = oracle._tuples((1,) if branches == 1 else (1, 2), n_max)
            assert tracer.mode_tuples(branches, n_max) == len(rows)


# --------------------------------------------------------------------------
# Load stays within nproc

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_no_parallelism_requested(name, tmp_path):
    wl = workloads.make(name, 1, tmp_path)
    for inv in wl.invocations:
        args = inv.args + inv.setup_args
        for i, a in enumerate(args):
            if a == "--threads":
                assert int(args[i + 1]) <= 1


def test_bubble_scan_uses_default_threads():
    tree = ast.parse((HERE / "bubble_scan.py").read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "attr", "") == "full_spectrum"]
    assert calls and all(k.arg != "threads" for c in calls for k in c.keywords)


def test_pass_runs_invocations_one_at_a_time(tmp_path):
    wl = workloads.make("screen", 1, tmp_path)
    for inv in wl.invocations:
        inv.check = lambda path: {}
    launcher = FakeLauncher()
    tally = {"attempted": 0, "failed": 0, "errors": []}
    bench.run_pass(launcher, wl, tmp_path, tally)
    # each request blocks until its child has exited; one request per run
    assert len(launcher.calls) == len(wl.invocations)
    assert [c[3] for c in launcher.calls] == ["analyze"] * 5


def test_each_setup_start_is_paired_with_a_reference_start(tmp_path):
    wl = workloads.make("screen", 1, tmp_path)
    launcher = FakeLauncher()
    tally = {"attempted": 0, "failed": 0, "errors": []}
    with pytest.raises(RuntimeError, match="reference"):
        bench.measure_setup(launcher, wl, 3, tmp_path, tally)
    launcher.calls.clear()
    launcher.run = lambda cmd, stderr_path, ready=False: (
        launcher.calls.append(cmd) or {"rc": 0, "wall": 0.3, "cpu": 0.3,
                                       "rss_mb": 1.0, "ready_s": 0.2})
    pairs = bench.measure_setup(launcher, wl, 3, tmp_path, tally, warmup=True)
    assert pairs == [(0.2, 0.2, 0.3)] * 3
    assert [c[1:] == bench.REFERENCE[1:] for c in launcher.calls] == \
        [False, True] * 4
    assert "hfstab" not in " ".join(bench.REFERENCE)


# --------------------------------------------------------------------------
# Inputs

def test_seed_fixes_inputs_and_range_keeps_structure():
    assert workloads.draw(7) == workloads.draw(7)
    assert workloads.draw(7) != workloads.draw(8)
    from hfstab.krein import run_pipeline
    from hfstab.models import make_model
    for model in ("water-waves", "boussinesq-whitham"):
        for h in workloads.H_RANGE:
            r = run_pipeline(make_model(model, {"h": h}), n_max=30)
            assert (r.counts["events"], r.counts["potential_instability"]) \
                == workloads.SCREEN_COUNTS[model]

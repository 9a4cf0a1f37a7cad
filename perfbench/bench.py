"""Measurement, checks and trace aggregation behind ``run.py``.

Children are started through a ``launcher.Launcher`` so that their max
RSS is their own (see launcher.py).  With ``trace`` off it times whole
passes of the workload and reports set-up and wall times
host-adjusted (see ``REFERENCE``); with ``trace`` on it alternates untraced passes
with traced ones (probes attached from outside the program, see
tracer.py) and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_STARTS = 15   # median of this many set-up starts per run
# The wall time of starting and ending an interpreter that loads numpy
# (and with it OpenBLAS's threads) swings by 20-50 % with the load on the
# host, from one start to the next and over minutes.  So each set-up start
# is followed by a start of REFERENCE, which runs no hfstab code, and
# setup_s and wall_s are host-adjusted: every fresh interpreter in the
# timed interval is charged REFERENCE_S in place of the reference's time
# (to its ready line for a set-up start, to its exit for an invocation).
REFERENCE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
REFERENCE_S = 0.2

SPAN_METRICS = {   # metric -> span names summed, outermost occurrence only
    "config.load_s": ("config.load_config", "config.apply_flags",
                      "config.build_model", "config.make_model"),
    "dsl.compile_s": ("dsl.model_from_config",),
    "collisions.find_s": ("collisions.find",),
    "krein.pipeline_s": ("krein.pipeline",),
    "waves.solve_s": ("waves.solve",),
    "hill.spectrum_s": ("hill.spectrum",),
    "hill.bubbles_s": ("hill.bubbles",),
    "report.emit_s": ("report.rows", "report.csv", "report.json"),
}
COUNTER_METRICS = {   # metric -> (counter, probe that feeds it)
    "models.symbol_calls": ("models.symbol_calls", "config.make_model"),
    "models.symbol_s": ("models.symbol_s", "config.make_model"),
    "collisions.mode_tuples": ("collisions.mode_tuples", "collisions.find"),
    "collisions.events": ("collisions.events", "collisions.find"),
    "collisions.residual_calls": ("collisions.residual_calls",
                                  "collisions.residual"),
    "collisions.residual_s": ("collisions.residual_s", "collisions.residual"),
    "krein.signature_calls": ("krein.signature_calls", "krein.signature"),
    "krein.signature_s": ("krein.signature_s", "krein.signature"),
    "waves.newton_solves": ("waves.newton_calls", "waves.newton"),
    "hill.slices": ("hill.slices", "hill.spectrum"),
    "hill.matrix_n": ("hill.matrix_n", "hill.spectrum"),
    "hill.assemble_calls": ("hill.assemble_calls", "hill.assemble"),
    "hill.assemble_s": ("hill.assemble_s", "hill.assemble"),
    "hill.eig_calls": ("hill.eig_calls", "hill.eig"),
    "hill.eig_s": ("hill.eig_s", "hill.eig"),
    "hill.eig_gflop_computed": ("hill.eig_gflop_computed", "hill.eig"),
    "report.bytes": ("report.bytes", "report.csv"),
}
LAYERS = ("import", "cli", "script", "config", "dsl", "models", "collisions",
          "krein", "waves", "hill", "report")

SPURIOUS_NOTE = (
    "spurious_bubbles counts bubble-report entries more than 5e-2 from every "
    "opposite-signature prediction.  They are eigensolver roundoff "
    "(|Im lambda| ~ 1e8, Re lambda just above 1e-7), so their number "
    "depends on how BLAS splits the work: the spectrum fifth-order run at "
    "amplitude 0.02, M=64 listed 397 bubbles (2 genuine) with default "
    "threads and 372 with OPENBLAS_NUM_THREADS=1 on a 2-core OpenBLAS "
    "machine.  BLAS threads are deliberately not pinned.")


def per_layer_units() -> dict:
    units = {m: "s" for m in SPAN_METRICS}
    for m in COUNTER_METRICS:
        units[m] = "s" if m.endswith("_s") else "count"
    units["hill.eig_gflop_computed"] = "GFLOP"
    units["report.bytes"] = "B"
    units.update({"collisions.hit_ratio": "ratio", "hill.eig_gflops": "GFLOP/s",
                  "hill.useful_slice_ratio": "ratio", "hill.noise_floor": "1",
                  "hill.spurious_bubbles": "count", "trace.overhead_s": "s"})
    units.update({f"self.{layer}_s": "s" for layer in LAYERS})
    return units


# --------------------------------------------------------------------------
# Child processes

def command(inv: workloads.Invocation, spans: Path | None = None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(HERE / "tracer.py"), str(spans),
                inv.entry, *inv.args]
    if inv.entry == "cli":
        return [sys.executable, "-m", "hfstab.cli", *inv.args]
    return [sys.executable, str(HERE / "bubble_scan.py"), *inv.args]


def measure_setup(launcher, wl: workloads.Workload, count: int, tmp: Path,
                  tally: dict, first: int = 0,
                  warmup: bool = False) -> list[tuple]:
    """``count`` triples (set-up, reference to ready, reference to exit) in
    seconds, after one discarded triple if ``warmup``.  Set-up is the time
    from a fresh interpreter to a built model, cycling over the workload's
    invocations from the ``first``-th, or None if the start failed; a start
    of ``REFERENCE`` follows each one at once."""
    pairs = []
    for i in range(count + warmup):
        inv = wl.invocations[(first + i) % len(wl.invocations)]
        cmd = [sys.executable, str(HERE / "setup_probe.py"), *inv.setup_args]
        tally["attempted"] += 1
        kid = launcher.run(cmd, tmp / "setup.stderr", ready=True)
        ref = launcher.run(REFERENCE, tmp / "reference.stderr", ready=True)
        if ref["rc"] != 0 or ref["ready_s"] is None:
            raise RuntimeError(f"reference start exited with {ref['rc']}")
        setup = kid["ready_s"]
        if kid["rc"] != 0 or setup is None:
            tally["failed"] += 1
            tally["errors"].append(f"setup {inv.name}: exit {kid['rc']}")
            setup = None
        if i >= warmup:
            pairs.append((setup, ref["ready_s"], ref["wall"]))
    return pairs


def run_pass(launcher, wl: workloads.Workload, tmp: Path, tally: dict,
             traced: bool = False) -> dict:
    """One sequential pass over the workload's invocations, then checks."""
    kids, facts, dumps = [], [], []
    t0 = time.perf_counter()
    for inv in wl.invocations:
        spans = tmp / f"{inv.name}.spans.json" if traced else None
        kids.append(launcher.run(command(inv, spans),
                                 tmp / f"{inv.name}.stderr"))
    wall = time.perf_counter() - t0
    for inv, kid in zip(wl.invocations, kids):
        tally["attempted"] += 1
        spans = tmp / f"{inv.name}.spans.json"
        if traced and spans.exists():
            dumps.append((inv.name, json.loads(spans.read_text())))
        try:
            if kid["rc"] != 0:
                err = (tmp / f"{inv.name}.stderr").read_text()[-400:]
                raise workloads.CheckFailed(f"exit {kid['rc']}: {err}")
            facts.append(inv.check(inv.out))
        except workloads.CheckFailed as exc:
            tally["failed"] += 1
            tally["errors"].append(f"{inv.name}: {exc}")
            facts.append({})
    return {"wall": wall, "cpu": sum(k["cpu"] for k in kids),
            "rss_mb": max(k["rss_mb"] for k in kids), "facts": facts,
            "dumps": dumps, "kids": kids}


# --------------------------------------------------------------------------
# Traces

def _outer_sum(spans: list[dict], names: tuple[str, ...]) -> float:
    total = 0.0
    for s in spans:
        if s["name"] not in names or s["end"] is None:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        if p is None:
            total += s["end"] - s["start"]
    return total


def self_times(spans: list[dict]) -> dict:
    """Per-layer self time: span time minus child spans and minus timed
    calls of other layers made directly inside it."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        if s["end"] is None:
            continue
        other = {k: v for k, v in s["nested"].items() if k != s["layer"]}
        out[s["layer"]] += (s["end"] - s["start"] - child[s["id"]]
                            - sum(other.values()))
        for layer, v in other.items():
            out[layer] += v
    return out


def layer_metrics(dumps: list[tuple[str, dict]], facts: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and the probes found absent."""
    absent = sorted({a for _, d in dumps for a in d["absent"]})
    counters, selfs = defaultdict(float), defaultdict(float)
    m = {}
    for name, names in SPAN_METRICS.items():
        if not any(n in absent for n in names):
            m[name] = sum(_outer_sum(d["spans"], names) for _, d in dumps)
    for _, d in dumps:
        for k, v in d["counters"].items():
            counters[k] = max(counters[k], v) if k == "hill.matrix_n" else counters[k] + v
        for k, v in self_times(d["spans"]).items():
            selfs[k] += v
    for name, (counter, probe) in COUNTER_METRICS.items():
        if probe not in absent:
            m[name] = counters.get(counter, 0.0)
    if "collisions.find" not in absent:
        tuples = m["collisions.mode_tuples"]
        m["collisions.hit_ratio"] = m["collisions.events"] / tuples if tuples else 0.0
    if "hill.eig" not in absent:
        m["hill.eig_gflops"] = (m["hill.eig_gflop_computed"] / m["hill.eig_s"]
                                if m["hill.eig_s"] else 0.0)
    spectra = [f for f in facts if "slices" in f]
    slices = sum(f["slices"] for f in spectra)
    m["hill.useful_slice_ratio"] = (sum(f["useful_slice_ratio"] * f["slices"]
                                        for f in spectra) / slices
                                    if slices else 0.0)
    m["hill.noise_floor"] = max((f["noise_floor"] for f in spectra), default=0.0)
    m["hill.spurious_bubbles"] = sum(f["spurious_bubbles"] for f in spectra)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = selfs.get(layer, 0.0)
    return m, absent


# --------------------------------------------------------------------------
# Metadata

def metadata(wl: workloads.Workload, seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": wl.name, "seed": seed, "inputs": wl.params,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "git_commit": git_commit(), "src_lines": src_lines,
        "spurious_bubbles_note": SPURIOUS_NOTE,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# --------------------------------------------------------------------------

def result(correct: bool, tally: dict, metrics: dict, units: dict) -> dict:
    return {"correct": correct, "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def bench(launcher, name: str, seed: int, seconds: float, trace: bool,
          tmp: Path) -> tuple[dict, dict]:
    """Run workload ``name``; returns (metadata, result line)."""
    wl = workloads.make(name, seed, tmp)
    for path, text in wl.files.items():
        Path(path).write_text(text)
    tally = {"attempted": 0, "failed": 0, "errors": []}
    meta = metadata(wl, seed)

    if not trace:
        # Set-up starts are spread between the passes, in step with the
        # elapsed share of the run, so that the references taken with them
        # cover the same stretch of time as the passes.
        measure_setup(launcher, wl, 0, tmp, tally, warmup=True)
        pairs, passes = [], []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(run_pass(launcher, wl, tmp, tally))
            share = min(1.0, (time.perf_counter() - t0) / seconds)
            due = math.ceil(SETUP_STARTS * share) - len(pairs)
            pairs += measure_setup(launcher, wl, due, tmp, tally, len(pairs))
        setup = [s for s, _, _ in pairs if s is not None]
        reference = [r for _, _, r in pairs]
        measured = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "wall_s": statistics.median(p["wall"] for p in passes),
        }
        # A set-up start is adjusted by the reference start next to it, up
        # to its ready line; a pass spans many references and is adjusted
        # by their median time to exit, once per invocation.
        excess = statistics.median(reference) - REFERENCE_S
        metrics = {
            "setup_s": REFERENCE_S + statistics.median(
                s - r for s, r, _ in pairs if s is not None) if setup else 0.0,
            "wall_s": measured["wall_s"] - len(wl.invocations) * excess,
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        units = END_TO_END
        meta["measured_s"] = measured
        meta["setup_samples"] = setup
        meta["reference_samples"] = reference
        meta["passes"] = [{"wall": p["wall"], "cpu": p["cpu"],
                           "rss_mb": p["rss_mb"],
                           "invocations": [{k: kid[k] for k in ("wall", "cpu")}
                                           for kid in p["kids"]]}
                          for p in passes]
        meta["spurious_bubbles"] = [sum(f.get("spurious_bubbles", 0)
                                        for f in p["facts"]) for p in passes]
    else:
        plain, traced = [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            plain.append(run_pass(launcher, wl, tmp, tally))
            traced.append(run_pass(launcher, wl, tmp, tally, traced=True))
        per_pass = [layer_metrics(p["dumps"], p["facts"]) for p in traced]
        absent = sorted({a for _, ab in per_pass for a in ab})
        names = set.intersection(*(set(m) for m, _ in per_pass))
        metrics = {k: statistics.median(m[k] for m, _ in per_pass)
                   for k in per_layer_units() if k in names}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in plain))
        units = per_layer_units()
        meta["absent_probes"] = absent
        meta["trace_file"] = write_trace(wl, seed, traced)
    meta["errors"] = tally["errors"][:20]
    correct = tally["failed"] == 0
    return meta, result(correct, tally, metrics, units)


def write_trace(wl: workloads.Workload, seed: int, traced: list[dict]) -> str:
    """All spans of the traced passes, with per-invocation self times."""
    out = ROOT / ".perfbench" / f"trace-{wl.name}-seed{seed}.json"
    records = []
    for i, p in enumerate(traced):
        for inv, dump in p["dumps"]:
            records.append({"workload": wl.name, "pass": i, "invocation": inv,
                            "spans": dump["spans"],
                            "counters": dump["counters"],
                            "self_s": self_times(dump["spans"]),
                            "absent": dump["absent"]})
    out.write_text(json.dumps(records))
    return str(out.relative_to(ROOT))

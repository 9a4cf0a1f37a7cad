"""The four benchmark workloads, their seeded inputs and their output checks.

The seed draws the continuous parameters: the water-wave and
Boussinesq-Whitham depths ``h`` and the fifth-order wave amplitude.  The
ranges keep the collision structure fixed (same event and verdict counts;
checked over the whole range with the closed-form reference), so every
seed does the same kind and amount of work.

Checks use tolerances, never bytes: an equivalent rewrite of a layer may
change the last digits.  Byte-identical reports are the job of the test
suite (``test_rerun_is_byte_identical``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("screen", "screen-dsl", "spectrum", "bubble-scan")
SCREEN_MODELS = ("water-waves", "water-waves-deep", "sine-gordon",
                 "boussinesq-whitham", "fifth-order-scalar")
SCREEN_N_MAX = 30
H_RANGE = (0.9, 1.1)          # 11 events for water waves and BW on all of it
AMPLITUDE = 0.02              # nominal fifth-order amplitude ...
AMPLITUDE_SPREAD = 0.1        # ... drawn within +-10 %

# Recorded reference: (events, potential-instability events) at n_max 30.
SCREEN_COUNTS = {
    "water-waves": (11, 10),
    "water-waves-deep": (10, 9),
    "sine-gordon": (24, 23),
    "boussinesq-whitham": (11, 10),
    "fifth-order-scalar": (4, 2),
}

# DSL twins of three screen models, as inline custom models.
DSL_MODELS = {
    "water-waves": lambda h: {
        "kind": "canonical", "omega1": "sign(k)*sqrt(g*k*tanh(k*h))",
        "params": {"g": 1.0, "h": h}},
    "fifth-order-scalar": lambda h: {
        "kind": "scalar", "omega1": "alpha*k^3 - beta*k^5",
        "params": {"alpha": 1.0, "beta": 0.25}},
    "boussinesq-whitham": lambda h: {
        "kind": "noncanonical-bw", "omega1": "sign(k)*sqrt(g*k*tanh(k*h))",
        "c_squared": "g*tanh(k*h)/k", "params": {"g": 1.0, "h": h},
        "at_zero": h},
}

MATCH_TOL = 5e-2       # acceptance 11: bubble ordinate vs opposite-signature event
ORDINATE_TOL = 5e-3    # a reported bubble is the expected one
WINDOW_WIDTH = 5e-3    # half-width of a refinement window (MuGridSpec default)


@dataclass(frozen=True)
class ExpectedBubble:
    """A genuine bubble: growth ``growth`` at |Im lambda| ``im`` for amplitude
    ``amplitude``.  Growth scales as amplitude^|n1 - n2| of the colliding
    modes; ``rtol`` is the allowed relative deviation from that scaling."""
    im: float
    growth: float
    amplitude: float
    rtol: float


# 5 % where the bubble spans many mu samples; 25 % for the 0.2136 bubble,
# which the 150-fold refinement samples at only one or two mu values, so the
# sampled maximum falls up to ~20 % below the true one across the range.
FIFTH_BUBBLE = ExpectedBubble(0.2277, 1.55e-4, AMPLITUDE, 0.05)
FIFTH_SMALL_BUBBLE = ExpectedBubble(0.2136, 3.36e-5, AMPLITUDE, 0.25)
BW_BUBBLE = ExpectedBubble(0.4855, 2.0e-5, 0.01, 0.05)


class CheckFailed(Exception):
    pass


@dataclass
class Invocation:
    """One program run: ``entry`` is ``cli`` or ``script``; ``check`` reads
    the output at ``out`` and returns facts, or raises CheckFailed."""
    name: str
    entry: str
    args: list[str]
    out: Path
    check: Callable[[Path], dict]
    setup_args: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    params: dict
    invocations: list[Invocation]
    files: dict = field(default_factory=dict)   # path -> text, written first


def draw(seed: int) -> dict:
    """The continuous inputs of every workload for one seed."""
    rng = random.Random(seed)
    return {
        "h_water_waves": rng.uniform(*H_RANGE),
        "h_bw": rng.uniform(*H_RANGE),
        "amplitude": AMPLITUDE * rng.uniform(1 - AMPLITUDE_SPREAD,
                                             1 + AMPLITUDE_SPREAD),
    }


def model_params(model: str, p: dict) -> dict:
    if model == "water-waves":
        return {"h": p["h_water_waves"]}
    if model == "boussinesq-whitham":
        return {"h": p["h_bw"]}
    return {}


# --------------------------------------------------------------------------
# Checks

_reference_cache: dict = {}


def _reference(model: str, params: dict, n_max: int):
    key = (model, tuple(sorted(params.items())), n_max)
    if key not in _reference_cache:
        disp = oracle.dispersion(model, params)
        c = disp.speed()
        _reference_cache[key] = (disp, c, oracle.collisions(disp, c, n_max))
    return _reference_cache[key]


def check_events(report: dict, model: str, params: dict, n_max: int) -> dict:
    """Verdicts, counts and (mu, Im lambda) of an analyze report."""
    disp, c, roots = _reference(model, params, n_max)
    events = report["events"]
    want_events, want_potential = SCREEN_COUNTS[model]
    potential = sum(e["verdict"] == "potential-instability" for e in events)
    if (len(events), potential) != (want_events, want_potential):
        raise CheckFailed(f"{model}: {len(events)} events / {potential} "
                          f"potential, reference {want_events} / "
                          f"{want_potential}")
    if abs(report["speed"] - c) > 1e-12 * max(1.0, abs(c)):
        raise CheckFailed(f"{model}: speed {report['speed']!r} != {c!r}")
    used = set()
    for e in events:
        mu, im = e["mu"], e["lambda_im"]
        hit = np.flatnonzero((np.abs(roots[:, 4] - mu) <= 1e-9)
                             & (np.abs(roots[:, 5] - im)
                                <= 1e-9 * max(1.0, abs(im))))
        if hit.size == 0:
            raise CheckFailed(f"{model}: event mu={mu!r} Im={im!r} matches "
                              "no reference collision")
        if int(hit[0]) in used:
            raise CheckFailed(f"{model}: duplicate event at mu={mu!r}")
        used.add(int(hit[0]))
        modes = (e["n1"], e["l1"], e["n2"], e["l2"])
        k1, k2 = modes[0] + mu, modes[2] + mu
        gap = abs(disp.omega(modes[1], k1) - c * k1
                  - disp.omega(modes[3], k2) + c * k2)
        if gap > 1e-9 * max(1.0, abs(im)):
            raise CheckFailed(f"{model}: modes {modes} do not collide at "
                              f"mu={mu!r} (gap {gap:.3g})")
        if e["at_origin"] != (abs(im) < oracle.LAMBDA_TOL):
            raise CheckFailed(f"{model}: at_origin wrong at mu={mu!r}")
        want = oracle.verdict(disp, c, *modes, mu, e["at_origin"])
        if e["verdict"] != want:
            raise CheckFailed(f"{model}: verdict {e['verdict']} at mu={mu!r}, "
                              f"reference {want}")
    overall = ("HF-instability-possible" if want_potential
               else "HF-instability-excluded")
    if report["overall"] != overall:
        raise CheckFailed(f"{model}: overall {report['overall']}")
    return {"events": len(events)}


def _check_grid(mu: np.ndarray, n: int, disp, c0: float, n_max: int,
                mu_count: int, refine_factor: int) -> None:
    """Rows are slices x N; the base grid is complete; windows are whole.

    The program centres its windows on the collisions at the wave's own
    speed, which the benchmark does not know, so the window count is only
    bounded below by the count at the bifurcation speed."""
    distinct = np.unique(mu)
    if mu.size != distinct.size * n:
        raise CheckFailed(f"{mu.size} rows is not {distinct.size} slices x {n}")
    base = -0.5 + (np.arange(mu_count) + 0.5) / mu_count
    hit = np.searchsorted(distinct, base - 1e-12)
    ok = hit < distinct.size
    ok[ok] &= np.abs(distinct[hit[ok]] - base[ok]) <= 1e-12
    if not ok.all():
        raise CheckFailed(f"{int((~ok).sum())} base-grid mu values missing")
    n_local = max(3, int(round(2 * WINDOW_WIDTH * refine_factor * mu_count)))
    windows, rest = divmod(distinct.size - mu_count, n_local)
    if rest or windows < oracle.window_count(disp, c0, n_max):
        raise CheckFailed(f"{distinct.size} slices is not {mu_count} plus "
                          f"whole windows of {n_local}")


def check_spectrum(csv_path: Path, bubbles: dict, model: str, params: dict,
                   n_max: int, mu_count: int, refine_factor: int, M: int,
                   amplitude: float, expected: list[ExpectedBubble]) -> dict:
    """Row count, genuine bubbles and their growth; returns bubble facts."""
    disp = oracle.dispersion(model, params)
    c0 = disp.speed()
    with open(csv_path) as fh:
        if fh.readline().strip() != "mu,re_lambda,im_lambda":
            raise CheckFailed(f"{csv_path.name}: bad CSV header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    mu, re, im = data.T
    _check_grid(mu, (2 * M + 1) * len(disp.branches), disp, c0, n_max,
                mu_count, refine_factor)
    distinct = np.unique(mu)

    opposite = oracle.opposite_ordinates(disp, c0, n_max)
    roots = oracle.collisions(disp, c0, n_max)
    found = bubbles["bubbles"]
    matched = [b for b in found if any(
        abs(abs(b["center_im"]) - o) < MATCH_TOL for o in opposite)]
    for exp in expected:
        near = roots[np.argmin(np.abs(roots[:, 5] - exp.im))]
        power = abs(near[0] - near[2])
        want = exp.growth * (amplitude / exp.amplitude) ** power
        for sign in (1.0, -1.0):
            hits = [b for b in matched
                    if abs(b["center_im"] - sign * exp.im) < ORDINATE_TOL]
            if not hits:
                raise CheckFailed(f"{model}: genuine bubble at Im "
                                  f"{sign * exp.im:+.4f} not found")
            growth = max(b["max_growth"] for b in hits)
            if abs(growth / want - 1.0) > exp.rtol:
                raise CheckFailed(
                    f"{model}: bubble at Im {sign * exp.im:+.4f} grows "
                    f"{growth:.4g}, expected {want:.4g} +- {exp.rtol:.0%}")

    inside = np.zeros(mu.size, dtype=bool)
    useful = np.zeros(distinct.size, dtype=bool)
    for b in matched:
        (m0, m1), (i0, i1) = b["mu_support"], b["im_support"]
        inside |= (mu >= m0) & (mu <= m1) & (im >= i0) & (im <= i1)
        useful |= (distinct >= m0) & (distinct <= m1)
    return {
        "slices": int(distinct.size),
        "bubbles": len(found),
        "matched_bubbles": len(matched),
        "spurious_bubbles": len(found) - len(matched),
        "noise_floor": float(re[~inside].max()),
        "useful_slice_ratio": float(useful.mean()),
    }


def _read_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


# --------------------------------------------------------------------------
# Workloads

def _analyze(name, model, params, tmp: Path, config: Path | None = None):
    out = tmp / f"{name}.json"
    if config is None:
        args = ["analyze", "--model", model, "--n-max", str(SCREEN_N_MAX)]
        for k, v in params.items():
            args += [f"--{k}", repr(v)]
    else:
        args = ["analyze", "--config", str(config)]
    check = lambda path: check_events(_read_json(path), model, params,
                                      SCREEN_N_MAX)
    return Invocation(name, "cli", args + ["--out", str(out)], out, check,
                      setup_args=args)


def _spectrum(name, entry, args, tmp: Path, model, params, n_max, mu_count,
              refine_factor, M, amplitude, expected, setup_args):
    out = tmp / f"{name}.csv"

    def check(path):
        return check_spectrum(path, _read_json(Path(str(path) + ".bubbles.json")),
                              model, params, n_max, mu_count, refine_factor,
                              M, amplitude, expected)
    return Invocation(name, entry, args + ["--out", str(out)], out, check,
                      setup_args=setup_args)


def make(name: str, seed: int, tmp: Path) -> Workload:
    """Build workload ``name`` for ``seed``; outputs go under ``tmp``."""
    p = draw(seed)
    if name == "screen":
        invs = [_analyze(m, m, model_params(m, p), tmp) for m in SCREEN_MODELS]
        return Workload(name, p, invs)
    if name == "screen-dsl":
        invs, files = [], {}
        for model, spec in DSL_MODELS.items():
            params = model_params(model, p)
            cfg = tmp / f"dsl-{model}.config.json"
            files[cfg] = json.dumps({"model": spec(params.get("h", 1.0)),
                                     "n_max": SCREEN_N_MAX})
            invs.append(_analyze(f"dsl-{model}", model, params, tmp, cfg))
        return Workload(name, p, invs, files)
    a = p["amplitude"]
    if name == "spectrum":
        fifth = ["spectrum", "--model", "fifth-order-scalar",
                 "--amplitude", repr(a)]
        # The BW run keeps amplitude 0.01 and h = 1: its 0.4855 bubble is
        # ~1e-4 wide in mu, narrower than the default refinement spacing
        # (5e-4), and is missed at other amplitudes (see README).
        bw = ["spectrum", "--model", "boussinesq-whitham",
              "--amplitude", "0.01", "--M", "32"]
        invs = [
            _spectrum("spectrum-fifth-order", "cli", fifth, tmp,
                      "fifth-order-scalar", {}, 10, 200, 10, 64, a,
                      [FIFTH_BUBBLE], fifth[:3]),
            _spectrum("spectrum-bw", "cli", bw, tmp, "boussinesq-whitham",
                      {}, 10, 200, 10, 32, 0.01, [BW_BUBBLE], bw[:3]),
        ]
        return Workload(name, {"amplitude": a}, invs)
    if name == "bubble-scan":
        args = ["--amplitude", repr(a)]
        invs = [_spectrum("bubble-scan", "script", args, tmp,
                          "fifth-order-scalar", {}, 3, 400, 150, 32, a,
                          [FIFTH_BUBBLE, FIFTH_SMALL_BUBBLE],
                          ["spectrum", "--model", "fifth-order-scalar"])]
        return Workload(name, {"amplitude": a}, invs)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")

"""Acceptance gate: one check per contract criterion, each printing a
PASS/FAIL line so a full run reads as a checklist."""

import math
import random

import numpy as np
import pytest

from hfstab import hill
from hfstab.collisions import find_collisions
from hfstab.dsl import parse
from hfstab.krein import signature, signature_product
from hfstab.models import (BUILTIN_MODELS, ModelError, bifurcation_speed,
                           eval_Omega, eval_omega, make_model,
                           model_from_config, validate_dispersive)
from hfstab.waves import (flat_state_cutoff, solve_wave_collocation,
                          wave_residual)

from dsl_printer import to_source
from elliptic_oracles import (elliptic_K, jacobi_cn, jacobi_dn, jacobi_sn,
                              kdv_cnoidal, mkdv_cn_wave, mkdv_sn_wave)
from hill_oracles import zero_amplitude_deviation
from signature_oracles import bw_signature, canonical_products, scalar_opposite
from test_dsl import random_tree


def report(capsys, num: int, ok: bool, desc: str, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: "
              f"{desc}{tail}")
    assert ok, f"acceptance criterion {num} failed: {desc}{tail}"


def non_origin(model, n_max, params=None):
    m = make_model(model, params)
    c = bifurcation_speed(m, 1, 1)
    return m, c, [e for e in find_collisions(m, c, n_max) if not e.at_origin]


def test_01_sine_gordon_anchor(capsys):
    _, _, events = non_origin("sine-gordon", 5)
    mu_exact = (math.sqrt(10.0) - 3.0) / 2.0
    lam_exact = math.sqrt(5.0) / 2.0
    hits = [e for e in events
            if abs(e.mu - mu_exact) < 1e-9
            and abs(e.lam - 1j * lam_exact) < 1e-9
            and (e.n1, e.l1, e.n2, e.l2) == (3, 1, 0, 2)]
    report(capsys, 1, len(hits) == 1,
           "sine-Gordon collision at mu=(sqrt(10)-3)/2, lambda=i*sqrt(5)/2",
           f"{len(hits)} matching event(s) within 1e-9")


def test_02_deep_water_anchor_and_depth_limit(capsys):
    _, _, events = non_origin("water-waves-deep", 3)
    first = min(e.lam.imag for e in events if e.lam.imag > 0)
    hits = [e for e in events
            if abs(e.mu - 0.25) < 1e-10 and abs(e.lam - 0.75j) < 1e-10]
    _, _, deep = non_origin("water-waves", 3, {"g": 1.0, "h": 100.0})
    closest = min(e.lam.imag for e in deep if e.lam.imag > 0)
    ok = (len(hits) == 1 and abs(first - 0.75) < 1e-10
          and abs(closest - 0.75) < 1e-2)
    report(capsys, 2, ok,
           "deep-water collision at mu=1/4, lambda=3i/4; h=100 within 1e-2",
           f"h=100 ordinate {closest:.6f}")


def test_03_kdv_family_has_no_collisions(capsys):
    _, _, e1 = non_origin("gkdv", 20)
    _, _, e2 = non_origin("whitham", 50)
    report(capsys, 3, not e1 and not e2,
           "gkdv (n_max=20) and whitham (n_max=50) have no non-origin "
           "collisions", f"{len(e1)}+{len(e2)} found")


def test_04_gkdv_ellipse_brute_force(capsys):
    model = make_model("gkdv")
    c = bifurcation_speed(model, 1, 1)
    points = [(k, l) for k in range(-50, 51) for l in range(-50, 51)
              if l * l + 3 * k * l + 3 * k * k - 1 == 0]
    expected = sorted([(1, -2), (-1, 2), (0, 1), (0, -1), (1, -1), (-1, 1)])
    ok = sorted(points) == expected and all(
        abs(eval_Omega(model, 1, float(k), c)) < 1e-12
        and abs(eval_Omega(model, 1, float(k + l), c)) < 1e-12
        for k, l in points)
    report(capsys, 4, ok,
           "integer points of the gkdv collision ellipse (|k|,|l| <= 50) "
           "are the six known ones and all sit at the origin",
           f"{len(points)} integer points")


def test_05_water_wave_signatures_opposite(capsys):
    counts = []
    ok = True
    for name, params in [("water-waves", {"g": 1.0, "h": 0.5}),
                         ("water-waves", {"g": 1.0, "h": 1.0}),
                         ("water-waves", {"g": 1.0, "h": 2.0}),
                         ("boussinesq-whitham", None)]:
        model, c, events = non_origin(name, 6, params)
        counts.append(len(events))
        ok = ok and events and all(
            signature_product(model, e, c) < 0 for e in events)
    report(capsys, 5, bool(ok),
           "all water-wave (h=0.5,1,2) and boussinesq-whitham collisions "
           "pair opposite Krein signatures", f"event counts {counts}")


def test_06_signature_formula_equivalence(capsys):
    checked = 0
    ok = True
    for name in ("sine-gordon", "water-waves", "water-waves-deep"):
        model, c, events = non_origin(name, 5)
        for e in events:
            direct = signature_product(model, e, c) < 0
            for product in canonical_products(model, e):
                ok = ok and (product < 0) == direct
                checked += 1
    model, c, events = non_origin("fifth-order-scalar", 5)
    for e in events:
        ok = ok and scalar_opposite(model, e) == (signature_product(model, e, c) < 0)
        checked += 1
    model, c, events = non_origin("boussinesq-whitham", 5)
    for e in events:
        for l, k in ((e.l1, e.n1 + e.mu), (e.l2, e.n2 + e.mu)):
            s = signature(model, l, k, c)
            ok = ok and (s > 0) == (bw_signature(model, l, k, c) > 0)
            checked += 1
    report(capsys, 6, ok and checked > 0,
           "all Krein-signature formulations agree on every solver event",
           f"{checked} comparisons")


def test_07_zero_amplitude_spectra_match_closed_form(capsys):
    mus = np.linspace(-0.49, 0.49, 32)
    worst = 0.0
    for name in sorted(BUILTIN_MODELS):
        model = make_model(name)
        c = bifurcation_speed(model, 1, 1)
        worst = max(worst, zero_amplitude_deviation(model, c, mus, 64))
    report(capsys, 7, worst <= 1e-8,
           "Hill spectra of the zero wave match closed-form eigenvalues "
           "for every built-in model (M=64, 32 Floquet samples)",
           f"max Hausdorff {worst:.2e}")


def test_08_closed_form_waves_solve_their_equations(capsys):
    worst = 0.0
    for kappa in (0.3, 0.5, 0.8):
        for name, build in (("kdv", kdv_cnoidal),
                            ("mkdv-focusing", mkdv_cn_wave),
                            ("mkdv-defocusing", mkdv_sn_wave)):
            worst = max(worst,
                        wave_residual(make_model(name), build(kappa)))
    endpoints = all(
        abs(build(0.0).c + 1.0) < 1e-10 and abs(build(0.0).amplitude) < 1e-10
        for build in (kdv_cnoidal, mkdv_cn_wave, mkdv_sn_wave))
    report(capsys, 8, worst <= 1e-8 and endpoints,
           "elliptic closed-form waves satisfy their traveling equations "
           "(kappa=0.3,0.5,0.8) and limit to (c,amp)=(-1,0)",
           f"max residual {worst:.2e}")


def test_09_collocation_reproduces_cnoidal(capsys):
    cn = kdv_cnoidal(0.3)
    w = solve_wave_collocation(make_model("kdv"), cn.amplitude, M=64,
                               steps=10, mean=cn.coefficients[0])
    dc = abs(w.c - cn.c)
    da = float(np.max(np.abs(np.asarray(w.coefficients)
                             - np.asarray(cn.coefficients))))
    ok = dc < 1e-8 and da < 1e-8
    report(capsys, 9, ok,
           "Newton collocation reproduces the kappa=0.3 cnoidal wave",
           f"speed diff {dc:.2e}, coefficient diff {da:.2e}")


def test_10_whitham_wave_no_high_frequency_growth(capsys):
    model = make_model("whitham")
    wave = solve_wave_collocation(model, 1e-2, M=64, steps=5)
    spectrum = hill.full_spectrum(model, wave,
                                  hill.MuGridSpec(count=500), 64)
    # every slice, the mirrored mu < 0 ones included
    lams = np.array([vals for _, vals in spectrum.slices])
    away = lams[np.abs(lams.imag) >= 0.1]
    worst = float(np.max(away.real))
    report(capsys, 10, worst <= 1e-6,
           "small whitham wave shows no growth away from the origin "
           "(500 Floquet samples, M=64)", f"max Re off-origin {worst:.2e}")


def test_11_fifth_order_bubble_confirms_prediction(capsys):
    model, c0, events = non_origin("fifth-order-scalar", 3)
    opposite = [e for e in events if signature_product(model, e, c0) < 0]
    wave = solve_wave_collocation(model, 0.02, M=32, steps=4)
    from hfstab.collisions import mirror_events
    windows = tuple(sorted({e.mu for e in mirror_events(model, events)}))
    grid = hill.MuGridSpec(count=400, windows=windows, refine_factor=150)
    spectrum = hill.full_spectrum(model, wave, grid, 32)
    bubbles = hill.detect_bubbles(spectrum, predictions=events)
    matched = [b for b in bubbles if any(
        abs(abs(b.center.imag) - e.lam.imag) < 5e-2 for e in opposite)]
    ok = bool(opposite) and bool(matched)
    detail = (f"{len(opposite)} opposite-signature events, "
              f"{len(matched)} confirming bubble(s), max growth "
              f"{max((b.max_growth for b in matched), default=0.0):.2e}")
    report(capsys, 11, ok,
           "fifth-order model: opposite-signature collision opens a Hill "
           "bubble within 5e-2 of the predicted ordinate", detail)


def test_12_bw_flat_state_dichotomy(capsys):
    model = make_model("boussinesq-whitham")
    k = flat_state_cutoff(model, -0.1)
    ok = (flat_state_cutoff(model, 0.1) is None and k is not None
          and abs(2.0 * (-0.1) + math.tanh(k) / k) <= 1e-10)
    report(capsys, 12, ok,
           "boussinesq-whitham flat states: a=+0.1 well-posed, a=-0.1 "
           "ill-posed with an accurate cutoff", f"cutoff_k {k:.6f}")


def test_13_utility_layer_randomized(capsys):
    rng = random.Random(424242)
    worst_identity = 0.0
    for _ in range(10000):
        kappa = rng.uniform(0.0, 0.99)
        u = rng.uniform(-4.0, 4.0) * elliptic_K(kappa)
        sn = jacobi_sn(u, kappa)
        cn = jacobi_cn(u, kappa)
        dn = jacobi_dn(u, kappa)
        worst_identity = max(worst_identity,
                             abs(sn * sn + cn * cn - 1.0),
                             abs(dn * dn + (kappa * sn) ** 2 - 1.0))
    round_trips = 0
    for _ in range(10000):
        tree = random_tree(rng, rng.randint(1, 6))
        if parse(to_source(tree)) == tree:
            round_trips += 1
    grid = [0.1, 0.37, 1.2, 2.9]
    odd_ok = True
    for name in sorted(BUILTIN_MODELS):
        model = make_model(name)
        is_even_pair = name == "sine-gordon"
        for b in model.branches:
            worst = max(abs(eval_omega(model, b.index, k)
                            + eval_omega(model, b.index, -k)) for k in grid)
            odd_ok = odd_ok and ((worst > 1e-6) == is_even_pair)

    def scalar_reflects(omega1):
        try:   # a model is checked when it is built, and checked again here
            model = model_from_config({"kind": "scalar", "omega1": omega1})
            return validate_dispersive(model) == {1: 1}
        except ModelError as exc:
            # only a reflection failure: a parse failure is a ModelError too
            if "no branch mirrors branch 1" not in str(exc):
                raise
            return False
    odd_ok = (odd_ok and scalar_reflects("k^3-0.25*k^5")
              and not scalar_reflects("sqrt(1+k^2)"))
    ok = worst_identity <= 1e-12 and round_trips == 10000 and odd_ok
    report(capsys, 13, ok,
           "10^4 Jacobi identity samples within 1e-12, 10^4 expression "
           "round trips, and odd built-in branches (the sine-Gordon pair "
           "even)",
           f"identity max {worst_identity:.2e}, "
           f"{round_trips}/10000 round trips")

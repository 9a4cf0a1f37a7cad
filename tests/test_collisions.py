"""Collision-detection tests against analytic anchors."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfstab import collisions
from hfstab.collisions import (VERDICT_INDETERMINATE, VERDICT_NONE,
                               VERDICT_POTENTIAL, CollisionEvent,
                               collision_residual, find_collisions,
                               mirror_events, secant_curve_data,
                               trace_first_collision_vs_depth)
from hfstab.models import (BUILTIN_MODELS, ModelError, bifurcation_speed,
                           eval_Omega, make_model, model_from_config)

from collision_oracles import all_pairs_scan, per_tuple_scan


def non_origin(events):
    return [e for e in events if not e.at_origin]


def build(spec):
    """A built-in model by name, or a custom model from its config."""
    return (make_model(spec) if isinstance(spec, str)
            else model_from_config(spec))


def find_for(name, n_max, params=None, N=1):
    model = make_model(name, params)
    c = bifurcation_speed(model, 1, N)
    return model, c, find_collisions(model, c, n_max)


class TestAnchors:
    def test_sine_gordon_explicit_solution(self):
        _, _, events = find_for("sine-gordon", 5)
        mu_exact = (math.sqrt(10.0) - 3.0) / 2.0
        lam_exact = math.sqrt(5.0) / 2.0
        match = [e for e in non_origin(events)
                 if abs(e.mu - mu_exact) < 1e-9
                 and abs(e.lam - 1j * lam_exact) < 1e-9]
        assert len(match) == 1
        e = match[0]
        assert (e.n1, e.l1, e.n2, e.l2) == (3, 1, 0, 2)

    def test_deep_water_first_collision(self):
        _, _, events = find_for("water-waves-deep", 3)
        match = [e for e in non_origin(events)
                 if abs(e.mu - 0.25) < 1e-10 and abs(e.lam - 0.75j) < 1e-10]
        assert len(match) == 1
        e = match[0]
        assert (e.n1, e.l1, e.n2, e.l2) == (2, 1, 0, 2)

    def test_fifth_order_collisions(self):
        # frozen anchors for alpha=1, beta=1/4 (mirror-normalized to the
        # stored representatives)
        _, _, events = find_for("fifth-order-scalar", 3)
        expected = [
            ((2, 1), 0.1798333, -0.2154767),
            ((2, -1), 0.2128410, -0.2071149),
            ((0, -2), 0.2276840, 0.3675445),
        ]
        for (n1, n2), im, mu in expected:
            match = [e for e in non_origin(events)
                     if (e.n1, e.n2) == (n1, n2)
                     and abs(e.lam.imag - im) < 1e-6
                     and abs(e.mu - mu) < 1e-6]
            assert len(match) == 1, (n1, n2)


class TestNegativeResults:
    def test_gkdv_no_non_origin_collisions(self):
        _, _, events = find_for("gkdv", 20)
        assert non_origin(events) == []

    def test_whitham_no_non_origin_collisions(self):
        _, _, events = find_for("whitham", 20)
        assert non_origin(events) == []

    def test_gkdv_ellipse_integer_points(self):
        # brute-force oracle: for the cubic dispersion at c = -1, modes k
        # and k+l collide iff l = 0 or l^2 + 3kl + 3k^2 = 1; the ellipse
        # carries exactly six integer points and all give Omega = 0
        model = make_model("gkdv")
        c = bifurcation_speed(model, 1, 1)
        points = [(k, l) for k in range(-50, 51) for l in range(-50, 51)
                  if l * l + 3 * k * l + 3 * k * k - 1 == 0]
        assert sorted(points) == sorted(
            [(1, -2), (-1, 2), (0, 1), (0, -1), (1, -1), (-1, 1)])
        for k, l in points:
            assert eval_Omega(model, 1, float(k), c) == pytest.approx(
                0.0, abs=1e-12)
            assert eval_Omega(model, 1, float(k + l), c) == pytest.approx(
                0.0, abs=1e-12)


class TestMechanics:
    def test_residual_requires_distinct_modes(self):
        model = make_model("kdv")
        with pytest.raises(ValueError):
            collision_residual(model, 1, 1, 1, 1, 0.1, -1.0)

    def test_grid_refinement_stability(self, monkeypatch):
        model = make_model("water-waves")
        c = bifurcation_speed(model, 1, 1)
        monkeypatch.setattr(collisions, "GRID_POINTS", 512)
        coarse = find_collisions(model, c, 5)
        monkeypatch.setattr(collisions, "GRID_POINTS", 4096)
        fine = find_collisions(model, c, 5)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert (a.n1, a.l1, a.n2, a.l2) == (b.n1, b.l1, b.n2, b.l2)
            assert a.mu == pytest.approx(b.mu, abs=1e-9)

    def test_events_sorted_and_nonnegative_im(self):
        _, _, events = find_for("water-waves", 8)
        ims = [e.lam.imag for e in events]
        assert ims == sorted(ims)
        assert all(im >= -1e-8 for im in ims)

    def test_mirror_events_are_collisions(self):
        model, c, events = find_for("sine-gordon", 4)
        mirrored = mirror_events(model, events)
        assert len(mirrored) == 2 * len(non_origin(events)) + sum(
            e.at_origin for e in events)
        for e in mirrored:
            r = collision_residual(model, e.n1, e.l1, e.n2, e.l2, e.mu, c)
            assert abs(r) < 1e-8
            lam = -1j * eval_Omega(model, e.l1, e.n1 + e.mu, c)
            assert abs(lam - e.lam) < 1e-8

    @pytest.mark.parametrize("product, at_origin, verdict", [
        (-0.5, False, VERDICT_POTENTIAL),
        (1e-13, False, VERDICT_INDETERMINATE),
        (-1e-13, False, VERDICT_INDETERMINATE),
        (0.3, False, VERDICT_NONE),
        (None, False, VERDICT_INDETERMINATE),
        (-0.5, True, VERDICT_INDETERMINATE),
    ])
    def test_verdict_follows_from_signature_product(self, product, at_origin,
                                                     verdict):
        # setting only the product, as a caller outside krein may, is enough
        e = CollisionEvent(n1=1, l1=1, n2=0, l2=1, mu=0.25,
                           lam=0j if at_origin else 0.75j, at_origin=at_origin)
        e.signature_product = product
        assert e.verdict == verdict
        assert e.to_dict()["verdict"] == verdict
        assert mirror_events(make_model("water-waves-deep"), [e])[-1].verdict \
            == verdict

    def test_mu_in_half_open_interval(self):
        for name in ("sine-gordon", "water-waves", "fifth-order-scalar"):
            _, _, events = find_for(name, 6)
            for e in events:
                assert -0.5 < e.mu <= 0.5

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-0.49, 0.5), st.integers(-3, 3), st.integers(-3, 3))
    def test_residual_antisymmetric_in_modes(self, mu, n1, n2):
        if n1 == n2:
            return
        model = make_model("kdv")
        r1 = collision_residual(model, n1, 1, n2, 1, mu, -1.0)
        r2 = collision_residual(model, n2, 1, n1, 1, mu, -1.0)
        assert r1 == pytest.approx(-r2, abs=1e-12)


@pytest.mark.parametrize("spec, n_max, grid_points", [
    ("water-waves", 4, 128), ("sine-gordon", 4, 64),
    ("fifth-order-scalar", 3, 256), ("boussinesq-whitham", 4, 7),
    ({"kind": "canonical", "omega1": "k^3-0.25*k^5"}, 3, 1),
])
def test_array_scan_matches_per_tuple_scan(spec, n_max, grid_points,
                                           monkeypatch):
    # the same events in the same order, with the same values
    model = build(spec)
    c = bifurcation_speed(model, 1, 1)
    monkeypatch.setattr(collisions, "GRID_POINTS", grid_points)
    got = [(e.n1, e.l1, e.n2, e.l2, e.mu, e.lam)
           for e in find_collisions(model, c, n_max)]
    assert got and got == per_tuple_scan(model, c, n_max)


def event_fields(events):
    # mu and lambda as their bits, so equal means bitwise equal
    return [(e.n1, e.l1, e.n2, e.l2, e.mu.hex(), e.lam.real.hex(),
             e.lam.imag.hex(), e.at_origin) for e in events]


def assert_scan_matches_all_pairs(model, n_max):
    c = bifurcation_speed(model, 1, 1)
    assert (event_fields(find_collisions(model, c, n_max))
            == event_fields(all_pairs_scan(model, c, n_max)))


# the inline twins of water-waves, fifth-order-scalar and boussinesq-whitham
DSL_TWINS = [
    {"kind": "canonical", "omega1": "sign(k)*sqrt(g*k*tanh(k*h))",
     "params": {"g": 1.0, "h": 1.0}},
    {"kind": "scalar", "omega1": "alpha*k^3 - beta*k^5",
     "params": {"alpha": 1.0, "beta": 0.25}},
    {"kind": "noncanonical-bw", "omega1": "sign(k)*sqrt(g*k*tanh(k*h))",
     "c_squared": "g*tanh(k*h)/k", "params": {"g": 1.0, "h": 1.0},
     "at_zero": 1.0},
]


class TestSkippedTuples:
    """Tuples whose Omega rows have disjoint ranges cannot collide on the
    grid, so skipping them changes no event."""

    @pytest.mark.parametrize("n_max", [1, 3, 10, 30])
    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_builtins_match_all_pairs_scan(self, name, n_max):
        assert_scan_matches_all_pairs(make_model(name), n_max)

    @pytest.mark.parametrize("spec", DSL_TWINS,
                             ids=lambda spec: spec["kind"])
    def test_dsl_twins_match_all_pairs_scan(self, spec):
        assert_scan_matches_all_pairs(model_from_config(spec), 30)

    @pytest.mark.parametrize("h", [0.9, 1.1])
    @pytest.mark.parametrize("name", ["water-waves", "boussinesq-whitham"])
    def test_depths_match_all_pairs_scan(self, name, h):
        assert_scan_matches_all_pairs(make_model(name, {"h": h}), 30)

    @pytest.mark.parametrize("spec, grid_points", [
        *((name, collisions.GRID_POINTS) for name in sorted(BUILTIN_MODELS)),
        # tuples of one mode pair on both branch orders, with exact grid
        # zeros before and after sign changes
        ({"kind": "canonical", "omega1": "k^3 - 2.5*k"},
         collisions.GRID_POINTS),
        ({"kind": "canonical", "omega1": "k^3 - 2.5*k"}, 7),
        ({"kind": "canonical", "omega1": "k^3-0.25*k^5"},
         collisions.GRID_POINTS)])
    def test_brackets_are_bisected_in_the_all_pairs_order(
            self, spec, grid_points, monkeypatch):
        # the first root of a (lambda, mu) class in scan order is kept, so
        # the scan must hand bisection the same brackets in the same order
        calls = []
        bisect = collisions._bisect

        def record(model, c, *arrays):
            calls.append([(x.dtype, x.tobytes()) for x in arrays])
            return bisect(model, c, *arrays)

        monkeypatch.setattr(collisions, "_bisect", record)
        monkeypatch.setattr(collisions, "GRID_POINTS", grid_points)
        model = build(spec)
        c = bifurcation_speed(model, 1, 1)
        find_collisions(model, c, 3 if isinstance(spec, dict) else 10)
        all_pairs_scan(model, c, 3 if isinstance(spec, dict) else 10)
        assert calls[0] == calls[1]

    def test_tuple_of_one_mode_number_is_scanned(self):
        # the branches +-omega meet where omega = 0, at k = -sqrt(2.5), an
        # event only the tuple (-2, 1, -2, 2) finds
        model = model_from_config({"kind": "canonical",
                                   "omega1": "k^3 - 2.5*k"})
        c = bifurcation_speed(model, 1, 1)
        assert any((e.n1, e.l1, e.n2, e.l2) == (-2, 1, -2, 2)
                   and e.mu == pytest.approx(2.0 - math.sqrt(2.5))
                   for e in find_collisions(model, c, 5))
        assert_scan_matches_all_pairs(model, 5)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           st.integers(1, 12))
    def test_odd_polynomials_match_all_pairs_scan(self, coeffs, n_max):
        model = model_from_config({
            "kind": "scalar", "omega1": "a1*k + a3*k^3 + a5*k^5",
            "params": dict(zip(("a1", "a3", "a5"), coeffs))})
        assert_scan_matches_all_pairs(model, n_max)


MODELS = [*sorted(BUILTIN_MODELS), *DSL_TWINS]
MODEL_IDS = [*sorted(BUILTIN_MODELS),
             *(f"dsl-{spec['kind']}" for spec in DSL_TWINS)]


class TestMergedResidual:
    """The array residual evaluates both sides of its tuples together, in
    one call per branch."""

    @pytest.mark.parametrize("spec", MODELS, ids=MODEL_IDS)
    def test_equals_the_difference_of_the_two_sides(self, spec):
        model = build(spec)
        c = bifurcation_speed(model, 1, 1)
        rng = np.random.default_rng(36)
        n1, n2 = rng.integers(-30, 31, (2, 600))
        l1, l2 = rng.choice([b.index for b in model.branches], (2, 600))
        keep = (n1 != n2) | (l1 != l2)
        n1, n2, l1, l2 = (x[keep][:500].reshape(2, 250)
                          for x in (n1, n2, l1, l2))
        mu = rng.uniform(-0.5, 0.5, n1.shape)
        for sl in (np.s_[0], np.s_[:]):   # one row, and a 2-D block
            r = collision_residual(model, n1[sl], l1[sl], n2[sl], l2[sl],
                                   mu[sl], c)
            sides = (collisions._Omega(model, c, l1[sl], n1[sl] + mu[sl])
                     - collisions._Omega(model, c, l2[sl], n2[sl] + mu[sl]))
            assert r.shape == sides.shape
            assert r.tobytes() == sides.tobytes()

    @pytest.mark.parametrize("spec", MODELS, ids=MODEL_IDS)
    def test_one_call_per_branch_per_bisection_step(self, spec,
                                                    monkeypatch):
        calls = Counter()

        def counted(branch):
            def evaluator(k):
                calls[branch.index] += 1
                return branch.evaluator(k)
            return replace(branch, evaluator=evaluator)

        model = build(spec)
        model = replace(model, branches=tuple(map(counted, model.branches)))
        c = bifurcation_speed(model, 1, 1)
        per_call, widths = [], []
        residual, bisect = collisions.collision_residual, collisions._bisect

        def recorded(*args):
            before = calls.copy()
            out = residual(*args)
            per_call.append(calls - before)
            return out

        def bisect_recorded(model, c, n1, l1, n2, l2, a, b, fa):
            widths.append(b - a)
            return bisect(model, c, n1, l1, n2, l2, a, b, fa)

        # find_collisions reaches the residual through the module, once per
        # bisection step and once for its events: a timer on the name sees
        # every step
        monkeypatch.setattr(collisions, "collision_residual", recorded)
        monkeypatch.setattr(collisions, "_bisect", bisect_recorded)
        find_collisions(model, c, 30)
        # a sign-change bracket starts 1/GRID_POINTS wide and halves per
        # step; an exact grid zero is a bracket of width 0
        live = (widths[0] > collisions.BISECT_TOL).any()
        steps = math.ceil(math.log2(1 / collisions.GRID_POINTS
                                    / collisions.BISECT_TOL)) if live else 0
        one_each = Counter({b.index: 1 for b in model.branches})
        assert per_call == [one_each] * (steps + 1)

    @pytest.mark.parametrize("name, branches", [("water-waves", (1, 2)),
                                                ("kdv", (1,))])
    def test_a_branch_the_model_lacks_is_refused(self, name, branches):
        model = make_model(name)
        c = bifurcation_speed(model, 1, 1)
        lacking = max(branches) + 1
        message = f"^model '{name}' has no branch {lacking}$"
        with pytest.raises(ModelError, match=message):
            collision_residual(model, 1, lacking, 0, 1, 0.1, c)
        with pytest.raises(ModelError, match=message):
            collision_residual(model, np.array([1, 2]), np.array([lacking] * 2),
                               np.array([0, 0]), np.array([1, 1]),
                               np.array([0.1, 0.2]), c)
        with pytest.raises(ModelError, match=message):
            collision_residual(model, np.array([1, 2]), np.array([1, 1]),
                               np.array([0, 0]), np.array([1, lacking]),
                               np.array([0.1, 0.2]), c)


class TestCurves:
    def test_secant_rows_cover_both_branches(self):
        model = make_model("sine-gordon")
        c = bifurcation_speed(model, 1, 1)
        rows = secant_curve_data(model, c, [-1, 0, 1], [0.0, 0.25])
        branches = {row[0] for row in rows}
        assert branches == {1, 2}
        assert len(rows) == 2 * 3 * 2

    def test_depth_trace_converges_to_three_quarters(self):
        h_grid = np.logspace(math.log10(0.5), 2.0, 8)
        rows = trace_first_collision_vs_depth(1.0, h_grid, n_max=3)
        ims = [im for _, im in rows]
        # shallow depths rise toward the deep-water limit, then the
        # trace settles onto 3/4 from above
        assert ims[0] < ims[1] < ims[2]
        gaps = [abs(im - 0.75) for im in ims[2:]]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert abs(ims[-1] - 0.75) < 1e-6

    def test_depth_trace_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            trace_first_collision_vs_depth(1.0, [0.0])

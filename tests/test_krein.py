"""Krein signatures and pipeline verdicts."""

import math

import numpy as np
import pytest

from hfstab.collisions import find_collisions
from hfstab.krein import (OVERALL_EXCLUDED, OVERALL_POSSIBLE, eigenmode,
                          run_pipeline, screen, signature, signature_product)
from hfstab.models import (ModelError, NumericalError, bifurcation_speed,
                           eval_Omega, eval_omega, make_model,
                           model_from_config, real_matrix)
from hfstab.collisions import VERDICT_NONE, VERDICT_POTENTIAL

from signature_oracles import (J_CANONICAL, P_CANONICAL, bw_signature,
                               canonical_hessian, canonical_products,
                               cankrein1_product, cankrein2_product,
                               scalar_opposite, sym_product)


def non_origin_events(name, n_max, params=None):
    model = make_model(name, params)
    c = bifurcation_speed(model, 1, 1)
    events = [e for e in find_collisions(model, c, n_max) if not e.at_origin]
    return model, c, events


class TestEigenvectors:
    def test_block_eigenvector_residual(self):
        # R(k)w = rho*w for the real w, and J·S(k)(P w) = lambda·(P w)
        model = make_model("water-waves")
        c = bifurcation_speed(model, 1, 1)
        for n, mu, l in [(2, 0.3, 1), (-1, 0.1, 2), (0, 0.5, 1)]:
            k = n + mu
            w = eigenmode(model, l, k, c)
            assert w.dtype == float
            rho = -eval_Omega(model, l, k, c)
            R = real_matrix(model, np.array([k]), c)
            assert np.linalg.norm(R @ w - rho * w) < 1e-10
            v = P_CANONICAL @ w
            block = J_CANONICAL @ canonical_hessian(model, c, k)
            lam = -1j * eval_Omega(model, l, k, c)
            assert np.linalg.norm(block @ v - lam * v) < 1e-10

    def test_bw_eigenvector_solves_block(self):
        # P = 1 for Boussinesq-Whitham: w itself is the eigenvector of J·S
        model = make_model("boussinesq-whitham")
        c = bifurcation_speed(model, 1, 1)
        c2 = model.kernel_symbol
        for n, mu, l in [(2, 0.25, 1), (-1, 0.4, 2)]:
            k = n + mu
            w = eigenmode(model, l, k, c)
            assert w.dtype == float
            rho = -eval_Omega(model, l, k, c)
            R = real_matrix(model, np.array([k]), c)
            assert np.linalg.norm(R @ w - rho * w) < 1e-10
            block = np.array([[1j * k * c, 1j * k],
                              [1j * k * c2(k), 1j * k * c]])
            lam = -1j * eval_Omega(model, l, k, c)
            assert np.linalg.norm(block @ w - lam * w) < 1e-10

    def test_degenerate_block_names_the_mode(self):
        # at k = 0 the BW block is zero, so every vector is a null vector
        # and none is the mode's: the error names the branch and wavenumber
        model = make_model("boussinesq-whitham")
        c = bifurcation_speed(model, 1, 1)
        with pytest.raises(NumericalError,
                           match=r"^no eigenvector within tolerance on "
                                 r"branch l=1 at k=0\.0 "):
            eigenmode(model, 1, 0.0, c)


class TestScalarSignatures:
    def test_sign_matches_definition(self):
        model = make_model("fifth-order-scalar")
        c = bifurcation_speed(model, 1, 1)
        for n, mu in [(1, 0.3), (-2, 0.25), (2, -0.4)]:
            k = n + mu
            expected = -eval_Omega(model, 1, k, c) / k
            assert signature(model, 1, k, c) == expected

    def test_zero_wavenumber_has_no_signature(self):
        model = make_model("kdv")
        with pytest.raises(ZeroDivisionError):
            signature(model, 1, 0.0, -1.0)

    def test_opposite_iff_wavenumbers_straddle_zero(self):
        model, c, events = non_origin_events("fifth-order-scalar", 3)
        for e in events:
            straddle = (e.n1 + e.mu) * (e.n2 + e.mu) < 0
            assert scalar_opposite(model, e) == straddle
            assert (signature_product(model, e, c) < 0) == straddle

    def test_fifth_order_has_same_signature_event(self):
        # one collision of the demonstration model pairs equal signatures,
        # so it cannot produce an instability
        model, c, events = non_origin_events("fifth-order-scalar", 3)
        same = [e for e in events if not scalar_opposite(model, e)]
        opp = [e for e in events if scalar_opposite(model, e)]
        assert same and opp
        assert any((e.n1, e.n2) == (2, 1) for e in same)


class TestCanonicalSignatures:
    def test_formula_equivalence_on_solver_events(self):
        for name in ("sine-gordon", "water-waves", "water-waves-deep"):
            model, c, events = non_origin_events(name, 5)
            assert events
            for e in events:
                direct = signature_product(model, e, c) < 0
                for product in canonical_products(model, e):
                    assert (product < 0) == direct

    def test_product_sign_consistency(self):
        model, c, events = non_origin_events("water-waves", 5)
        for e in events:
            p = signature_product(model, e, c)
            assert (p < 0) == (cankrein1_product(model, e) < 0)
            assert (p < 0) == (cankrein2_product(model, e) < 0)

    def test_direct_signature_value(self):
        # for an even system with A = 0 the direct form reduces to
        # 2*B(k)*omega_l(k)*Omega_l(k) on the first-row eigenvector scale;
        # only the sign is contractual, so compare signs against sym2
        model, c, events = non_origin_events("sine-gordon", 4)
        for e in events:
            s1 = signature(model, e.l1, e.n1 + e.mu, c)
            s2 = signature(model, e.l2, e.n2 + e.mu, c)
            assert (s1 * s2 < 0) == (sym_product(model, e, 2) < 0)

    def test_synthetic_same_signature_canonical_event(self):
        # canonical system built so that some collisions pair equal
        # signatures: opposite-signature is not automatic for all models
        model = model_from_config(
            {"kind": "canonical", "omega1": "k^3-0.25*k^5"})
        c = bifurcation_speed(model, 1, 1)
        events = [e for e in find_collisions(model, c, 3) if not e.at_origin]
        same = [e for e in events
                if not signature_product(model, e, c) < 0]
        assert same, "expected at least one equal-signature collision"


class TestBWSignatures:
    def test_signature_formula(self):
        # the unit eigenvector is (ik, -i*w)/sqrt(k^2 + w^2), on which
        # v†Sv is the closed form 2w(w - kV) over k^2 + w^2
        model = make_model("boussinesq-whitham")
        c = bifurcation_speed(model, 1, 1)
        for n, mu, l in [(2, 0.3, 1), (-3, 0.45, 2), (7, -0.2, 1)]:
            k = n + mu
            w = eval_omega(model, l, k)
            s = signature(model, l, k, c)
            assert s == pytest.approx(bw_signature(model, l, k, c)
                                      / (k ** 2 + w ** 2))

    def test_all_non_origin_opposite(self):
        model, c, events = non_origin_events("boussinesq-whitham", 8)
        assert events
        for e in events:
            assert signature_product(model, e, c) < 0


class TestPipeline:
    def test_screen_signs_every_event(self):
        model = make_model("fifth-order-scalar")
        c = bifurcation_speed(model, 1, 1)
        events = screen(model, c, 3)
        modes = lambda es: [(e.n1, e.l1, e.n2, e.l2, e.mu) for e in es]
        assert modes(events) == modes(find_collisions(model, c, 3))
        for e in events:
            want = 0.0 if e.at_origin else signature_product(model, e, c)
            assert e.signature_product == want

    def test_screen_checks_the_dispersion_relation(self):
        # the check runs when the model is built, so screen never sees one
        # that fails it
        with pytest.raises(ModelError, match="no branch mirrors branch 1"):
            model = model_from_config({"kind": "scalar", "omega1": "k^2+k"})
            screen(model, bifurcation_speed(model, 1, 1), 3)

    def test_water_waves_possible(self):
        report = run_pipeline(make_model("water-waves"), N=1, n_max=6)
        assert report.overall == OVERALL_POSSIBLE
        non_origin = [e for e in report.events if not e.at_origin]
        assert non_origin
        assert all(e.verdict == VERDICT_POTENTIAL for e in non_origin)

    def test_whitham_excluded(self):
        report = run_pipeline(make_model("whitham"), N=1, n_max=10)
        assert report.overall == OVERALL_EXCLUDED
        assert report.counts["non_origin"] == 0

    def test_gkdv_excluded(self):
        report = run_pipeline(make_model("gkdv"), N=1, n_max=10)
        assert report.overall == OVERALL_EXCLUDED

    def test_fifth_order_mixed_verdicts(self):
        report = run_pipeline(make_model("fifth-order-scalar"), N=1, n_max=3)
        assert report.overall == OVERALL_POSSIBLE
        verdicts = {e.verdict for e in report.events if not e.at_origin}
        assert VERDICT_POTENTIAL in verdicts
        assert VERDICT_NONE in verdicts

    def test_report_serializes(self):
        report = run_pipeline(make_model("sine-gordon"), N=1, n_max=4)
        d = report.to_dict()
        assert d["model"] == "sine-gordon"
        assert d["overall"] == OVERALL_POSSIBLE
        assert isinstance(d["events"], list)
        assert d["speed"] == pytest.approx(math.sqrt(2.0))

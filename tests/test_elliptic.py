"""Elliptic integrals, Jacobi functions, and closed-form waves."""

import math
import random

import numpy as np
import pytest

from hfstab.models import make_model
from hfstab.waves import wave_residual

from elliptic_oracles import (elliptic_K, jacobi_cn, jacobi_dn, jacobi_sn,
                              kdv_cnoidal, mkdv_cn_wave, mkdv_sn_wave)
from wave_oracles import profile


def quad_K(kappa: float) -> float:
    # independent oracle: composite-midpoint quadrature of the defining
    # integral of the first kind in trigonometric form
    n = 200000
    h = math.pi / 2.0 / n
    t = (np.arange(n) + 0.5) * h
    return float(h * np.sum(1.0 / np.sqrt(1.0 - (kappa * np.sin(t)) ** 2)))


class TestEllipticK:
    def test_against_quadrature(self):
        for kappa in (0.0, 0.1, 0.3, 0.5, 0.8, 0.95):
            assert elliptic_K(kappa) == pytest.approx(quad_K(kappa),
                                                      abs=1e-9)

    def test_k_zero(self):
        assert elliptic_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_modulus_range(self):
        with pytest.raises(ValueError):
            elliptic_K(1.0)
        with pytest.raises(ValueError):
            elliptic_K(-0.1)


class TestJacobi:
    def test_trigonometric_limit(self):
        for u in (-2.0, 0.3, 1.7):
            assert jacobi_sn(u, 0.0) == pytest.approx(math.sin(u), abs=1e-14)
            assert jacobi_cn(u, 0.0) == pytest.approx(math.cos(u), abs=1e-14)
            assert jacobi_dn(u, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_quarter_period(self):
        for kappa in (0.3, 0.7):
            K = elliptic_K(kappa)
            assert jacobi_sn(K, kappa) == pytest.approx(1.0, abs=1e-12)
            assert jacobi_cn(K, kappa) == pytest.approx(0.0, abs=1e-12)
            assert jacobi_dn(K, kappa) == pytest.approx(
                math.sqrt(1.0 - kappa ** 2), abs=1e-12)

    def test_identities_random(self):
        rng = random.Random(1234)
        for _ in range(2000):
            kappa = rng.uniform(0.0, 0.99)
            u = rng.uniform(-4.0, 4.0) * elliptic_K(kappa)
            sn = jacobi_sn(u, kappa)
            cn = jacobi_cn(u, kappa)
            dn = jacobi_dn(u, kappa)
            assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
            assert abs(dn * dn + (kappa * sn) ** 2 - 1.0) <= 1e-12

    def test_against_scipy(self):
        from scipy.special import ellipj
        rng = random.Random(99)
        for _ in range(200):
            kappa = rng.uniform(0.0, 0.99)
            u = rng.uniform(-10.0, 10.0)
            sn, cn, dn, _ = ellipj(u, kappa ** 2)
            assert jacobi_sn(u, kappa) == pytest.approx(sn, abs=1e-12)
            assert jacobi_cn(u, kappa) == pytest.approx(cn, abs=1e-12)
            assert jacobi_dn(u, kappa) == pytest.approx(dn, abs=1e-12)


class TestClosedFormWaves:
    def test_kdv_cnoidal_zero_limit(self):
        w = kdv_cnoidal(0.0)
        assert w.c == pytest.approx(-1.0, abs=1e-10)
        assert w.amplitude == pytest.approx(0.0, abs=1e-10)

    def test_kdv_cnoidal_direct_formula(self):
        kappa = 0.5
        w = kdv_cnoidal(kappa)
        K = elliptic_K(kappa)
        amp = 12.0 * (kappa * K / math.pi) ** 2
        for x in (0.0, 0.7, 2.0):
            direct = amp * jacobi_cn(K * x / math.pi, kappa) ** 2
            assert profile(w, x) == pytest.approx(direct, abs=1e-10)

    def test_sn_wave_speed(self):
        kappa = 0.5
        w = mkdv_sn_wave(kappa)
        K = elliptic_K(kappa)
        assert w.c == pytest.approx(-4.0 * 1.25 * K * K / math.pi ** 2)

    def test_residuals(self):
        cases = [("kdv", kdv_cnoidal), ("mkdv-focusing", mkdv_cn_wave),
                 ("mkdv-defocusing", mkdv_sn_wave)]
        for kappa in (0.3, 0.5, 0.8):
            for name, build in cases:
                wave = build(kappa)
                model = make_model(name)
                assert wave_residual(model, wave) <= 1e-8, (name, kappa)

    def test_coefficients_decay_geometrically(self):
        # the focusing/defocusing waves carry odd harmonics only, so decay
        # is measured blockwise rather than between adjacent harmonics
        for build in (kdv_cnoidal, mkdv_cn_wave, mkdv_sn_wave):
            a = np.abs(np.asarray(build(0.5).coefficients))
            b1 = np.max(a[1:5])
            b2 = np.max(a[5:9])
            b3 = np.max(a[9:13])
            assert b2 < 1e-2 * b1
            assert b3 < 1e-2 * b2

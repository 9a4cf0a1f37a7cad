"""Stokes expansion, Newton collocation, and the flat-state cutoff."""

import math
import tracemalloc

import numpy as np
import pytest

from hfstab import waves
from hfstab.models import (ModelError, NumericalError, TravelingWave,
                           bifurcation_speed, make_model, model_from_config,
                           traveling_equation)
from hfstab.waves import (flat_state_cutoff, solve_wave_collocation,
                          wave_residual)

from elliptic_oracles import kdv_cnoidal
import wave_oracles


def stokes_seed(model, epsilon):
    """The library's Newton seed for ``model`` at amplitude epsilon."""
    return waves._stokes_seed(traveling_equation(model),
                              bifurcation_speed(model, 1, 1), epsilon)


class TestStokes:
    """The Stokes hierarchy, on the oracle's orders 1-3; the library keeps
    only the Newton seed (``TestOneEquation`` checks its bits)."""

    def test_order_one_is_monochromatic(self):
        for name in ("kdv", "whitham", "boussinesq-whitham"):
            model = make_model(name)
            w = wave_oracles.stokes_wave(model, 1e-3, 1)
            assert w.coefficients[1] == 1e-3
            assert all(v == 0.0 for i, v in enumerate(w.coefficients)
                       if i != 1)
            assert w.c == pytest.approx(bifurcation_speed(model, 1, 1))
        # the seed of a non-quadratic nonlinearity is first order
        for name in ("mkdv-focusing", "mkdv-defocusing"):
            model = make_model(name)
            coefficients, c = stokes_seed(model, 1e-3)
            assert coefficients == [0.0, 1e-3]
            assert c == bifurcation_speed(model, 1, 1)

    def test_residual_order_drops(self):
        model = make_model("whitham")
        for eps in (1e-2, 1e-3):
            r1, r2, r3 = (
                wave_residual(model, wave_oracles.stokes_wave(model, eps, n))
                for n in (1, 2, 3))
            # each order gains one power of eps, up to O(1) constants
            assert r2 < 0.1 * r1
            assert r3 < 0.1 * r2
            # order-1 residual is the bare quadratic term sigma U^2 / 2
            assert r1 == pytest.approx(0.5 * model.sigma * eps ** 2,
                                       rel=0.05)

    def test_gkdv_order2_matches_small_cnoidal(self):
        # elliptic-expansion oracle: the kappa -> 0 cnoidal wave is the
        # Stokes wave of matching first harmonic, up to O(eps^3)
        cn = kdv_cnoidal(0.08)
        model = make_model("kdv")
        eps = cn.amplitude
        w = wave_oracles.stokes_wave(model, eps, 2)
        assert w.coefficients[2] == pytest.approx(cn.coefficients[2],
                                                  abs=5.0 * eps ** 3)
        # cnoidal mean is gauged differently; speeds agree after the
        # Galilean shift by the mean
        assert w.c == pytest.approx(cn.c - cn.coefficients[0],
                                    abs=5.0 * eps ** 3)

    def test_resonance_error(self):
        # omega = k makes Omega(j) = 0 for every j: the seed's second
        # harmonic resonates, and the solver refuses the model
        model = model_from_config(
            {"kind": "scalar", "omega1": "k", "params": {"sigma": 1.0}})
        with pytest.raises(NumericalError,
                           match=r"^Stokes divisor at harmonic 2 is "
                                 r"0\.000e\+00; resonant bifurcation$"):
            solve_wave_collocation(model, 1e-3, M=16)


class TestCollocation:
    def test_zero_target(self):
        model = make_model("whitham")
        w = solve_wave_collocation(model, 0.0, M=16)
        assert w.amplitude == 0.0
        assert w.c == pytest.approx(bifurcation_speed(model, 1, 1))

    @pytest.mark.parametrize("name", ["kdv", "boussinesq-whitham"])
    def test_zero_target_with_a_mean_is_refused(self, name):
        # amplitude 0 is the zero wave at the bifurcation speed
        with pytest.raises(ValueError, match="mean"):
            solve_wave_collocation(make_model(name), 0.0, M=16, mean=0.1)

    @pytest.mark.parametrize("steps", [0, waves.MAX_STEPS + 1, 10**12])
    def test_steps_outside_the_bound_are_refused(self, steps):
        with pytest.raises(ValueError, match=rf"^steps must be in \[1, "
                                             rf"{waves.MAX_STEPS}\], got "):
            solve_wave_collocation(make_model("kdv"), 0.01, M=16,
                                   steps=steps)

    def test_kdv_matches_cnoidal(self):
        cn = kdv_cnoidal(0.3)
        model = make_model("kdv")
        w = solve_wave_collocation(model, cn.amplitude, M=64, steps=10,
                                   mean=cn.coefficients[0])
        assert abs(w.c - cn.c) < 1e-8
        a = np.asarray(w.coefficients)
        b = np.asarray(cn.coefficients)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_whitham_small_wave(self):
        model = make_model("whitham")
        w = solve_wave_collocation(model, 1e-2, M=64, steps=5)
        assert wave_residual(model, w) <= 1e-10
        assert w.c == pytest.approx(math.sqrt(math.tanh(1.0)), abs=1e-2)

    def test_bw_small_wave(self):
        model = make_model("boussinesq-whitham")
        w = solve_wave_collocation(model, 1e-2, M=64, steps=5)
        assert wave_residual(model, w) <= 1e-9

    def test_step_halving_consistency(self):
        model = make_model("whitham")
        w1 = solve_wave_collocation(model, 2e-2, M=64, steps=5)
        w2 = solve_wave_collocation(model, 2e-2, M=64, steps=10)
        assert abs(w1.c - w2.c) < 1e-9
        assert np.max(np.abs(np.asarray(w1.coefficients)
                             - np.asarray(w2.coefficients))) < 1e-9

    def test_stokes_collocation_agreement(self):
        model = make_model("whitham")
        eps = 1e-3
        coefficients, c = stokes_seed(model, eps)
        wc = solve_wave_collocation(model, eps, M=32, steps=2)
        for i in range(4):
            assert abs(coefficients[i] - wc.coefficients[i]) < 100 * eps ** 4
        assert abs(c - wc.c) < 100 * eps ** 4

    def test_negative_mean_bw_refused(self):
        model = make_model("boussinesq-whitham")
        with pytest.raises(ModelError):
            solve_wave_collocation(model, 1e-3, M=16, mean=-0.1)
        # force flag overrides the guard
        w = solve_wave_collocation(model, 1e-3, M=16, mean=-1e-4, force=True)
        assert w.coefficients[0] == pytest.approx(-1e-4)

    def test_insufficient_modes_flagged(self):
        model = make_model("kdv")
        cn = kdv_cnoidal(0.92)
        with pytest.raises(NumericalError, match="^coefficients do not "
                                                 "decay below 1e-12 within "
                                                 "M=16 "):
            solve_wave_collocation(model, cn.amplitude, M=16, steps=20,
                                   mean=cn.coefficients[0])

    def test_residual_sensitivity(self):
        model = make_model("whitham")
        w = solve_wave_collocation(model, 1e-2, M=32, steps=3)
        base = wave_residual(model, w)
        w.coefficients = list(w.coefficients)
        w.coefficients[1] += 1e-3
        bumped = wave_residual(model, w)
        assert base < 1e-9
        assert bumped > 100.0 * max(base, 1e-10)
        assert bumped < 1e-2

    @pytest.mark.parametrize("name, M", [
        ("kdv", 200), ("whitham", 64), ("mkdv-focusing", 100),
        ("fifth-order-scalar", 16), ("boussinesq-whitham", 150)])
    def test_fft_residual_matches_the_dense_one(self, name, M):
        # U and K*U come from inverse FFTs, not from a dense cosine basis:
        # the two residuals differ by rounding only
        model = make_model(name)
        wave = solve_wave_collocation(model, 0.01, M=M, steps=2)
        assert abs(wave_residual(model, wave)
                   - dense_residual(model, wave)) <= 1e-15

    def test_residual_memory_is_linear_in_the_modes(self):
        # a 1,001-coefficient wave on its 4,000-point grid: a few arrays of
        # 4,000 doubles, where a dense cosine basis would hold 4 million
        model = make_model("kdv")
        wave = TravelingWave(model="kdv", c=-1.0,
                             coefficients=0.01 * 0.9 ** np.arange(1001.0))
        tracemalloc.start()
        try:
            wave_residual(model, wave)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("size", [1, 2, 17])
    def test_cosine_values_invert_cosine_coeffs(self, size):
        # the transform pair round-trips on every grid of n > 2(size - 1)
        # points, and the synthesis is the cosine series
        a = np.random.default_rng(size).standard_normal(size)
        wave = TravelingWave(model="kdv", c=0.0, coefficients=a.tolist())
        M = size - 1
        for n in {2 * M + 1, 2 * M + 2, max(4 * M, 64)}:
            values = waves._cosine_values(a, n)
            x = 2.0 * math.pi * np.arange(n) / n
            assert np.max(np.abs(values - wave_oracles.profile(wave, x))) \
                <= 1e-14 * np.sum(np.abs(a))
            assert np.max(np.abs(waves._cosine_coeffs(values, M) - a)) \
                <= 1e-15


def dense_residual(model, wave):
    """``waves.wave_residual`` on one (M+1) x max(4M, 64) cosine basis."""
    eq = traveling_equation(model)
    a = np.asarray(wave.coefficients, dtype=float)
    M = a.size - 1
    ngrid = max(4 * M, 64)
    x = 2.0 * math.pi * np.arange(ngrid) / ngrid
    cosj = np.cos(np.outer(np.arange(M + 1), x))
    u = cosj.T @ a
    conv = cosj.T @ (eq.kernel(np.arange(M + 1.0)) * a)
    res = conv - eq.s(wave.c) * u + eq.N(u) - eq.sign * wave.constant
    return float(np.max(np.abs(res)))


SCALAR_WAVES = ("kdv", "gkdv", "whitham", "mkdv-focusing",
                "fifth-order-scalar")
AMPLITUDES = (0.001, 0.01, 0.02)
# (model, params, amplitude, mean): every wave the two-branch oracle checks
ORACLE_WAVES = (
    [(name, None, amp, 0.0) for name in SCALAR_WAVES + ("boussinesq-whitham",)
     for amp in AMPLITUDES]
    + [("boussinesq-whitham", {"alpha": 0.7}, 0.01, 0.0),
       ("boussinesq-whitham", None, 0.01, 0.05),
       ("boussinesq-whitham", {"h": 1.03}, 0.01, 0.0)])


def bits(wave):
    """Every float of a wave's speed, coefficients and constant, exactly."""
    return [v.hex() for v in (wave.c, *wave.coefficients, wave.constant)]


class TestOneEquation:
    """The one traveling equation reproduces the two-branch solver bit for
    bit (``wave_oracles``)."""

    @pytest.mark.parametrize("name,params,amplitude,mean", ORACLE_WAVES)
    def test_collocation_matches_two_branch_oracle(self, name, params,
                                                   amplitude, mean):
        model = make_model(name, params)
        got = solve_wave_collocation(model, amplitude, mean=mean)
        want = wave_oracles.solve_wave_collocation(model, amplitude,
                                                   mean=mean)
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("name", SCALAR_WAVES + ("boussinesq-whitham",))
    def test_stokes_matches_two_branch_oracle(self, name):
        # the seed is the oracle's order 3 for a quadratic nonlinearity and
        # its order 1 otherwise
        model = make_model(name)
        order = 3 if model.power == 1 else 1
        for eps in AMPLITUDES:
            coefficients, c = stokes_seed(model, eps)
            want = wave_oracles.stokes_wave(model, eps, order)
            assert ([v.hex() for v in (c, *coefficients)]
                    == [v.hex() for v in (want.c, *want.coefficients)])


class TestFlatState:
    BW = make_model("boussinesq-whitham")

    def test_positive_background_wellposed(self):
        assert flat_state_cutoff(self.BW, 0.1) is None

    def test_zero_background_wellposed(self):
        assert flat_state_cutoff(self.BW, 0.0) is None

    def test_negative_background_cutoff(self):
        k = flat_state_cutoff(self.BW, -0.1)
        assert k is not None and k > 0
        assert abs(2.0 * (-0.1) + math.tanh(k) / k) < 1e-10

    def test_strongly_negative_background(self):
        assert flat_state_cutoff(self.BW, -1.0) == 0.0

    def test_cutoff_reads_alpha(self):
        # S[0, 0] = 2*alpha*q + c^2(k): at alpha = 2, q = -0.1 acts as -0.2
        bw2 = make_model("boussinesq-whitham", {"alpha": 2.0})
        k = flat_state_cutoff(bw2, -0.1)
        assert k == pytest.approx(2.4641, abs=1e-4)
        assert abs(4.0 * (-0.1) + math.tanh(k) / k) < 1e-10
        # a negative alpha makes the positive mean the ill-posed one
        flipped = make_model("boussinesq-whitham", {"alpha": -1.0})
        assert flat_state_cutoff(flipped, -0.1) is None
        assert flat_state_cutoff(flipped, 0.1) == flat_state_cutoff(
            self.BW, -0.1)
        assert flat_state_cutoff(
            make_model("boussinesq-whitham", {"alpha": 0.0}), -0.1) is None

    def test_expression_twin_has_the_same_cutoff(self):
        twin = model_from_config({
            "kind": "noncanonical-bw",
            "omega1": "sign(k)*sqrt(g*k*tanh(k*h))",
            "c_squared": "g*tanh(k*h)/k", "params": {"g": 1.0, "h": 1.0},
            "at_zero": 1.0})
        assert (flat_state_cutoff(twin, -0.1).hex()
                == flat_state_cutoff(self.BW, -0.1).hex())

    def test_other_kinds_refused(self):
        for name in ("kdv", "water-waves"):
            with pytest.raises(ModelError, match="no flat-state cutoff"):
                flat_state_cutoff(make_model(name), -0.1)

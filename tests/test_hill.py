"""Hill-matrix assembly, spectra, bubbles, and zero-amplitude consistency."""

import dataclasses
import functools
import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from hfstab import hill, report
from hfstab.collisions import (VERDICT_NONE, VERDICT_POTENTIAL,
                               find_collisions, mirror_events)
from hfstab.krein import screen
from hfstab.models import (BUILTIN_MODELS, ModelError, NumericalError,
                           TravelingWave, TruncationWarning,
                           bifurcation_speed, eval_Omega, hessian,
                           make_model, model_from_config, real_matrix,
                           wave_part, SCALAR, CANONICAL)
from hfstab.waves import solve_wave_collocation

from elliptic_oracles import kdv_cnoidal
from hill_oracles import (former_max_real_part, former_mirror,
                          former_scalar_real_matrix,
                          former_zero_wave_real_matrix, hausdorff,
                          zero_amplitude_deviation)
from signature_oracles import J_CANONICAL, canonical_hessian
import wave_oracles


def spectrum_at(model, wave, mu, M):
    """All eigenvalues of the truncated Hill matrix at one mu, sorted by
    (Im, Re): a one-slice ``full_spectrum``."""
    return hill.full_spectrum(model, wave, [mu], M).values[0]


def quadrature_coeff(values, x, j):
    """Exponential Fourier coefficient j of samples on a uniform 2*pi grid."""
    return np.mean(values * np.exp(-1j * j * x))


def real_form(L, canonical=False):
    """-i·P^-1·L·P with P = diag(1, i) per mode for a canonical model, else
    P = 1: the real Hill matrix R of the complex L = J·(S + W)."""
    if canonical:
        n = L.shape[0] // 2
        p = np.concatenate([np.ones(n), np.full(n, 1j)])
        L = L * p[None, :] / p[:, None]
    return -1j * L


def assert_hamiltonian_symmetry(s):
    """Eigenvalues i*rho of a real R: a real rho sits on the axis with
    Re = +0.0, the others come in exact pairs lambda, -conj(lambda)."""
    for _, vals in s.slices:
        image = -np.conj(vals) + 0.0   # + 0.0 maps -0.0 back to +0.0
        image = image[np.lexsort((image.real, image.imag))]
        assert image.tobytes() == vals.tobytes()


def parent_mu_grid(spec):
    """The grid as built before it was mirrored: the uniform points and a
    window about each listed center only.  Its mu >= 0 half is the oracle."""
    base = -0.5 + (np.arange(spec.count) + 0.5) / spec.count
    parts = [base]
    for center in spec.windows:
        n_local = max(3, int(round(2 * hill.WINDOW_WIDTH
                                   * spec.refine_factor * spec.count)))
        local = np.linspace(center - hill.WINDOW_WIDTH,
                            center + hill.WINDOW_WIDTH, n_local)
        parts.append(local[(local > -0.5) & (local < 0.5)])
    return np.unique(np.concatenate(parts))


def fifth_order_windows():
    """The window centers the CLI passes for the fifth-order model: every
    non-origin collision mu and its mirror."""
    model = make_model("fifth-order-scalar")
    events = find_collisions(model, bifurcation_speed(model, 1, 1), 3)
    return tuple(sorted({e.mu for e in mirror_events(model, events)
                         if not e.at_origin}))


class TestMuGrid:
    def test_base_grid_open_interval(self):
        grid = hill.build_mu_grid(hill.MuGridSpec(count=128))
        assert grid.size == 128
        assert np.all(np.diff(grid) > 0)
        assert grid[0] > -0.5 and grid[-1] < 0.5

    def test_windows_add_points(self):
        base = hill.build_mu_grid(hill.MuGridSpec(count=64))
        refined = hill.build_mu_grid(
            hill.MuGridSpec(count=64, windows=(0.21,), refine_factor=100))
        assert refined.size > base.size
        width = hill.WINDOW_WIDTH
        inside = refined[(refined > 0.21 - width) & (refined < 0.21 + width)]
        assert inside.size >= 3

    def test_bad_count(self):
        with pytest.raises(ValueError):
            hill.build_mu_grid(hill.MuGridSpec(count=0))

    @pytest.mark.parametrize("count, windows, refine_factor", [
        (200, None, 10),            # the CLI's mirrored fifth-order windows
        (400, None, 150),           # the acceptance-11 scan's grid
        (64, (0.21, 0.0012), 10),   # one-sided: each gains its mirror window
        (201, (0.21, -0.21), 10),   # odd count: mu = 0 is a base point
    ])
    def test_grid_is_symmetric(self, count, windows, refine_factor):
        windows = fifth_order_windows() if windows is None else windows
        g = hill.build_mu_grid(hill.MuGridSpec(
            count=count, windows=windows, refine_factor=refine_factor))
        assert np.array_equal(g, -g[::-1])
        assert np.all(np.diff(g) > 0) and g[0] > -0.5
        # mu >= 0 is bit-for-bit the parent's grid for the mirrored list
        mirrored = tuple(sorted({*windows, *(-c for c in windows)}))
        old = parent_mu_grid(hill.MuGridSpec(
            count=count, windows=mirrored, refine_factor=refine_factor))
        assert g[g >= 0.0].tobytes() == old[old >= 0.0].tobytes()
        zeros = g[g == 0.0]
        assert zeros.size == count % 2
        assert not np.signbit(zeros).any()


class TestAssembly:
    def test_scalar_zero_amplitude_is_exact_diagonal(self):
        model = make_model("kdv")
        c = bifurcation_speed(model, 1, 1)
        wave = hill.zero_wave(model, c)
        M, mu = 8, 0.3
        R = hill.assemble(model, wave, mu, M)
        ns = np.arange(-M, M + 1)
        expected = np.array([-1j * eval_Omega(model, 1, n + mu, c)
                             for n in ns])
        assert np.array_equal(np.diag(R), real_form(expected))
        assert np.count_nonzero(R - np.diag(np.diag(R))) == 0

    def test_scalar_entries_match_quadrature(self):
        # oracle: off-diagonal entries of L are -i(n+mu) times the
        # exponential Fourier coefficients of sigma*U, computed here by
        # direct trapezoidal quadrature of the closed-form profile
        cn = kdv_cnoidal(0.4)
        model = make_model("kdv")
        M, mu = 6, 0.17
        R = hill.assemble(model, TravelingWave(
            model="kdv", c=cn.c, coefficients=cn.coefficients,
            constant=cn.constant), mu, M)
        ngrid = 4096
        x = 2.0 * math.pi * np.arange(ngrid) / ngrid
        u = wave_oracles.profile(cn, x)
        for n in (-M, -2, 0, 3, M):
            for m in (-M, -1, 0, 2, M):
                w_j = quadrature_coeff(model.sigma * u, x, n - m)
                entry = -1j * (n + mu) * w_j
                if n == m:
                    entry += -1j * eval_Omega(model, 1, n + mu, cn.c)
                assert abs(R[n + M, m + M] - real_form(entry)) < 1e-10

    def test_higher_harmonic_only_wave_is_kept(self):
        # a wave with zero amplitude and mean but a cos(2x) term is not the
        # zero wave: the entries of L at n - m = +-2 are -i(n+mu)*sigma*0.3/2
        model = make_model("kdv")
        wave = TravelingWave(model="kdv", c=-1.0, coefficients=[0.0, 0.0, 0.3])
        M, mu = 5, 0.21
        R = hill.assemble(model, wave, mu, M)
        for n in range(-M, M + 1):
            for m in range(-M, M + 1):
                entry = -1j * (n + mu) * model.sigma * 0.15 * (abs(n - m) == 2)
                if n == m:
                    entry = -1j * eval_Omega(model, 1, n + mu, wave.c)
                assert abs(R[n + M, m + M] - real_form(entry)) < 1e-14

    def test_bw_entries_match_quadrature(self):
        # oracle: L = ik [[c, 1], [c^2(k) + 2 alpha Q, c]] with the Fourier
        # coefficients of Q from trapezoidal quadrature of the profile
        model = make_model("boussinesq-whitham")
        wave = solve_wave_collocation(model, 1e-2, M=24, steps=3)
        M, mu = 6, 0.17
        n = 2 * M + 1
        R = hill.assemble(model, wave, mu, M)
        ngrid = 4096
        x = 2.0 * math.pi * np.arange(ngrid) / ngrid
        q = wave_oracles.profile(wave, x)
        ks = np.arange(-M, M + 1) + mu
        for i, k in enumerate(ks):
            ik = 1j * k
            for j in range(n):
                diag = float(i == j)
                q_hat = quadrature_coeff(q, x, i - j)
                lower = ik * (model.kernel_symbol(k) * diag
                              + 2.0 * model.alpha * q_hat)
                assert abs(R[i, j] - real_form(ik * wave.c * diag)) < 1e-12
                assert abs(R[i, n + j] - real_form(ik * diag)) < 1e-12
                assert abs(R[n + i, j] - real_form(lower)) < 1e-10
                assert abs(R[n + i, n + j]
                           - real_form(ik * wave.c * diag)) < 1e-12

    @pytest.mark.parametrize("name", ["sine-gordon", "water-waves",
                                      "water-waves-deep"])
    def test_canonical_zero_amplitude_blocks(self, name):
        # each Fourier mode k carries the real form of the 2x2 block
        # J S(k) of its own components and nothing else
        model = make_model(name)
        c = bifurcation_speed(model, 1, 1)
        M, mu = 5, -0.31
        n = 2 * M + 1
        R = hill.assemble(model, hill.zero_wave(model, c), mu, M)
        assert R.dtype == float
        rest = R.copy()
        for i, k in enumerate(np.arange(-M, M + 1) + mu):
            rows = np.array([i, n + i])
            block = real_form(J_CANONICAL @ canonical_hessian(model, c, k),
                              canonical=True)
            assert np.max(np.abs(R[np.ix_(rows, rows)] - block)) < 1e-12
            rest[np.ix_(rows, rows)] = 0.0
        assert np.count_nonzero(rest) == 0

    def test_trace_equals_eigenvalue_sum(self):
        model = make_model("boussinesq-whitham")
        c = bifurcation_speed(model, 1, 1)
        wave = solve_wave_collocation(model, 1e-2, M=24, steps=3)
        M, mu = 12, 0.22
        R = hill.assemble(model, wave, mu, M)
        vals = spectrum_at(model, wave, mu, M)
        assert abs(1j * np.trace(R) - np.sum(vals)) < 1e-8

    def test_canonical_finite_amplitude_rejected(self):
        model = make_model("sine-gordon")
        c = bifurcation_speed(model, 1, 1)
        wave = TravelingWave(model="sine-gordon", c=c,
                             coefficients=[0.0, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            with pytest.raises(ModelError, match="'sine-gordon' .canonical."):
                hill.assemble(model, wave, 0.1, 4)

    @pytest.mark.parametrize("M", [8, 32])
    @pytest.mark.parametrize("name, params", [
        ("kdv", None), ("gkdv", {"sigma": -2.0}), ("mkdv-focusing", None),
        ("mkdv-defocusing", None), ("whitham", None),
        ("fifth-order-scalar", None), ("boussinesq-whitham", {"alpha": 0.7})])
    def test_wave_part_matches_per_kind_oracle(self, name, params, M):
        # -sign * N'(U) of the traveling equation is -sigma*U^p (scalar) and
        # 2*alpha*Q (BW): bit for bit, sign of zero included, where N is
        # quadratic; the convolved U^2 of mKdV is the oracle's sampled one
        # to rounding
        model = make_model(name, params)
        wave = solve_wave_collocation(model, 0.05, M=32, steps=3)
        got = wave_part(model, wave, M)
        want = wave_oracles.wave_part(model, wave, M)
        if model.power == 1:
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        else:
            eps = np.finfo(float).eps
            assert (np.max(np.abs(got - want))
                    <= 4.0 * eps * np.max(np.abs(want)))

    def test_mkdv_spectrum_keeps_the_sampled_wave_terms_bubbles(
            self, monkeypatch, tmp_path):
        # the spectrum with mKdV's convolved wave term against the one with
        # the oracle's sampled term: the same three bubbles on the same mu,
        # growths within 1e-9
        from hfstab.cli import main
        argv = ["spectrum", "--model", "mkdv-focusing", "--amplitude",
                "0.02", "--M", "32", "--out"]
        assert main(argv + [str(tmp_path / "exact")]) == 0
        monkeypatch.setattr(hill, "wave_part", wave_oracles.wave_part)
        assert main(argv + [str(tmp_path / "sampled")]) == 0
        got, want = (json.loads((tmp_path / f"{run}.bubbles.json")
                                .read_text())["bubbles"]
                     for run in ("exact", "sampled"))
        assert len(got) == len(want) == 3
        for b, w in zip(got, want):
            assert b["mu_support"] == w["mu_support"]
            assert b["max_growth"] == pytest.approx(w["max_growth"],
                                                    rel=1e-9)

    def test_truncation_warning(self):
        model = make_model("kdv")
        wave = TravelingWave(model="kdv", c=-1.0,
                             coefficients=[0.0] + [0.1] * 9)
        with pytest.warns(TruncationWarning):
            hill.assemble(model, wave, 0.1, 2)

    def test_no_truncation_warning_when_the_matrix_holds_the_wave(self):
        # harmonics up to 2M fit in the Toeplitz part; so does a wave
        # shorter than 2M + 1 coefficients
        model = make_model("kdv")
        short = TravelingWave(model="kdv", c=-1.0, coefficients=[0.0, 0.1])
        four = TravelingWave(model="kdv", c=-1.0,
                             coefficients=[0.0, 0.05, 0.01, 0.002])
        full = TravelingWave(model="kdv", c=-1.0, coefficients=[0.1] * 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            hill.assemble(model, short, 0.1, 4)
            hill.assemble(model, four, 0.1, 16)
            hill.assemble(model, full, 0.1, 4)

    def test_bad_m(self):
        model = make_model("kdv")
        with pytest.raises(ValueError):
            hill.assemble(model, hill.zero_wave(model, -1.0), 0.1, 0)


class TestSpectra:
    def test_conjugate_symmetry_across_mu(self):
        # the operator pencil is real, so the spectrum at -mu is the
        # complex conjugate of the spectrum at +mu
        cn = kdv_cnoidal(0.3)
        model = make_model("kdv")
        wave = TravelingWave(model="kdv", c=cn.c,
                             coefficients=cn.coefficients)
        for mu in (0.1, 0.37):
            plus = spectrum_at(model, wave, mu, 16)
            minus = spectrum_at(model, wave, -mu, 16)
            assert hausdorff(np.conj(plus), minus) < 1e-10

    @pytest.mark.parametrize("name, mu", [("kdv", 0.37),
                                          ("fifth-order-scalar", 0.3675),
                                          ("boussinesq-whitham", 0.2608)])
    def test_hamiltonian_symmetry_is_exact(self, name, mu):
        # eigenvalues i*rho of a real R: a real rho sits on the axis with
        # Re = +0.0, the others come in exact pairs lambda, -conj(lambda).
        # The fifth-order and BW mu lie inside bubbles.
        model = make_model(name)
        if name == "kdv":
            cn = kdv_cnoidal(0.3)
            wave = TravelingWave(model="kdv", c=cn.c,
                                 coefficients=cn.coefficients)
        else:
            wave = solve_wave_collocation(model, 0.01, M=32, steps=4)
        s = hill.full_spectrum(model, wave, [-0.4, 0.1, mu], 16)
        assert_hamiltonian_symmetry(s)
        assert (s.max_real_part() > 1e-6) == (name != "kdv")

    def test_kdv_cnoidal_spectrally_stable_slice(self):
        cn = kdv_cnoidal(0.3)
        model = make_model("kdv")
        wave = TravelingWave(model="kdv", c=cn.c,
                             coefficients=cn.coefficients)
        vals = spectrum_at(model, wave, 0.25, 32)
        assert np.max(np.abs(vals.real)) < 1e-6

    def test_explicit_mu_array_accepted(self):
        model = make_model("kdv")
        wave = hill.zero_wave(model, -1.0)
        s = hill.full_spectrum(model, wave, np.array([0.1, 0.2]), 4)
        assert [mu for mu, _ in s.slices] == [0.1, 0.2]
        assert s.max_real_part() < 1e-12


def derived_slice_case(name):
    """A model and wave for the derived-slice checks."""
    if name == "kdv":
        cn = kdv_cnoidal(0.3)
        return make_model("kdv"), TravelingWave(
            model="kdv", c=cn.c, coefficients=cn.coefficients)
    model = make_model(name)
    if name in ("sine-gordon", "water-waves"):
        return model, hill.zero_wave(model, bifurcation_speed(model, 1, 1))
    amplitude = 0.02 if name == "fifth-order-scalar" else 1e-2
    return model, solve_wave_collocation(model, amplitude, M=32, steps=4)


class TestDerivedSlices:
    """full_spectrum solves a MuGridSpec grid's mu >= 0 half only and
    derives each mu < 0 slice by lambda -> -lambda."""

    def test_one_eigensolve_per_nonnegative_mu(self, monkeypatch):
        model, wave = derived_slice_case("fifth-order-scalar")
        grid = hill.MuGridSpec(count=41, windows=fifth_order_windows())
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda R: shapes.append(R.shape) or eigvals(R))
        s = hill.full_spectrum(model, wave, grid, 16)
        mus = hill.build_mu_grid(grid)
        assert [mu for mu, _ in s.slices] == mus.tolist()
        # stacked calls of (B, 33, 33): one matrix per mu >= 0
        solved = sum(shape[0] for shape in shapes)
        assert solved == np.count_nonzero(mus >= 0.0)
        assert solved == (mus.size + 1) // 2
        assert {shape[1:] for shape in shapes} == {(33, 33)}

    @pytest.mark.parametrize("name", ["kdv", "fifth-order-scalar",
                                      "boussinesq-whitham", "sine-gordon",
                                      "water-waves"])
    def test_derived_slices_match_direct_solves(self, name):
        # the canonical models' flip also negates the second block; the
        # fifth-order windows put near-collision eigenvalues in the grid
        model, wave = derived_slice_case(name)
        windows = fifth_order_windows() if name == "fifth-order-scalar" else ()
        grid = hill.MuGridSpec(count=24, windows=windows)
        s = hill.full_spectrum(model, wave, grid, 16)
        negative = [(mu, vals) for mu, vals in s.slices if mu < 0.0]
        assert len(negative) == len(s.slices) // 2
        for mu, vals in negative:
            direct = spectrum_at(model, wave, mu, 16)
            scale = max(1.0, float(np.abs(direct).max()))
            assert hausdorff(vals, direct) <= 1e-12 * scale
            assert not np.signbit(vals.real[vals.real == 0.0]).any()

    @pytest.mark.parametrize("count", [24, 25])
    def test_values_hold_only_the_solved_slices(self, count):
        # an odd count puts mu = +0.0 in the grid, which has no mirror
        model, wave = derived_slice_case("kdv")
        s = hill.full_spectrum(model, wave, hill.MuGridSpec(count=count), 8)
        assert s.mus.size == count
        assert len(s.values) == np.count_nonzero(s.mus >= 0.0)
        assert len(s.values) == (count + 1) // 2
        assert len(s.slices) == count
        mus = np.array([-0.3, 0.2, -0.1, 0.4])
        s = hill.full_spectrum(model, wave, mus, 8)
        assert s.mus.tolist() == sorted(mus) and len(s.values) == mus.size

    @pytest.mark.parametrize("name", ["fifth-order-scalar",
                                      "boussinesq-whitham", "sine-gordon"])
    def test_zero_amplitude_max_real_part_is_positive_zero(self, name):
        # the derived rows' real parts are +0.0 too, so the report prints 0
        model = make_model(name)
        wave = hill.zero_wave(model, bifurcation_speed(model, 1, 1))
        s = hill.full_spectrum(model, wave, hill.MuGridSpec(count=40), 8)
        top = s.max_real_part()
        assert top == 0.0 and not np.signbit(top)
        assert report.json_dumps({"max_re_lambda": top}) == \
            '{\n  "max_re_lambda": 0\n}\n'

    @pytest.mark.parametrize("count", [1200, 24_000])
    def test_reading_a_spectrum_holds_a_few_blocks_whatever_the_grid(self,
                                                                    count):
        # the mirrored slices and the bubble candidates are taken a block
        # at a time: nothing of the size of the grid is built beside values
        model = make_model("fifth-order-scalar")
        wave = hill.zero_wave(model, bifurcation_speed(model, 1, 1))
        s = hill.full_spectrum(model, wave, hill.MuGridSpec(count=count), 16)
        block = report._BLOCK * s.values.itemsize
        rows = 0
        tracemalloc.start()
        try:
            assert hill.detect_bubbles(s) == []
            assert s.max_real_part() == 0.0
            for part in hill.spectrum_to_csv_rows(s):
                rows += len(part)
                del part
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == count * 33
        assert peak <= 8 * block


# a wave amplitude (0 for the zero wave, which has no bubble) and a mu
# inside the wave's bubble
PEAK_CASES = {"fifth-order-scalar": (0.02, 0.3675),
              "boussinesq-whitham": (0.01, 0.2608),
              "mkdv-focusing": (0.05, 0.02),
              "sine-gordon": (0.0, 0.3), "kdv": (0.0, 0.3),
              "water-waves": (0.0, 0.3)}


@functools.cache
def peak_case_wave(name):
    model = make_model(name)
    amplitude, _ = PEAK_CASES[name]
    if not amplitude:
        return model, hill.zero_wave(model, bifurcation_speed(model, 1, 1))
    return model, solve_wave_collocation(model, amplitude, M=32, steps=4)


class TestPeak:
    """``max_real_part`` reads the solved rows only: each slice's real parts
    are symmetric about 0, so a mirrored slice's peak is its partner's.  It
    is bitwise the former form, which also read every mirrored slice's."""

    @pytest.mark.parametrize("grid", ["mirrored", "explicit", "signed"])
    @pytest.mark.parametrize("name", sorted(PEAK_CASES))
    def test_peak_equals_the_former_form(self, name, grid):
        model, wave = peak_case_wave(name)
        amplitude, mu = PEAK_CASES[name]
        # a window of 21 points about the bubble's mu, its mirror's about
        # -mu, or mu given
        grid = {"mirrored": hill.MuGridSpec(count=42, windows=(mu,),
                                            refine_factor=50),
                "explicit": [-0.4, 0.1, mu],
                "signed": [-mu, -0.2, 0.0, mu]}[grid]
        s = hill.full_spectrum(model, wave, grid, 16)
        assert_hamiltonian_symmetry(s)
        top = s.max_real_part()
        assert top.hex() == former_max_real_part(s).hex()
        assert top.hex() == max(vals.real.max()
                                for _, vals in s.slices).hex()
        assert (top > 1e-9) == bool(amplitude)

    def test_empty_spectrum_has_peak_zero(self):
        s = hill.SpectrumSet()
        assert s.max_real_part().hex() == former_max_real_part(s).hex()
        assert s.max_real_part().hex() == (0.0).hex()


NON_CANONICAL = sorted(name for name in BUILTIN_MODELS
                       if make_model(name).kind != CANONICAL)


def finite_wave(name, mean):
    """A small finite-amplitude wave of a built-in model with a pinned
    mean; a nonzero mean makes the wave matrix's W[0, 0] nonzero."""
    model = make_model(name)
    return model, solve_wave_collocation(model, 0.01, M=16, steps=2,
                                         mean=mean)


class TestFormerForms:
    """The scalar real Hill matrix, built in its output array with or
    without a wave, and the mirrored slices, read off their partners in
    reverse, are bitwise the former forms that ``hill_oracles`` keeps."""
    # an odd count puts mu = +0.0, and with it the mode k = 0, in the grid
    GRID = hill.MuGridSpec(count=25, windows=(0.1, 0.37))

    @pytest.mark.parametrize("mean", [0.0, 0.1])
    @pytest.mark.parametrize("name", [n for n in NON_CANONICAL
                                      if make_model(n).kind == SCALAR])
    def test_scalar_real_matrix_equals_the_former_form(self, name, mean):
        model, wave = finite_wave(name, mean)
        M = 8
        W = wave_part(model, wave, M)
        mus = hill.build_mu_grid(self.GRID)
        assert 0.0 in mus.tolist()
        if mean:
            assert W[M, M] != 0.0
        # a stack of every slice at once, and one slice at k = n + 0
        for ks in (hill._wavenumbers(mus, M), hill._wavenumbers(0.0, M)):
            R = real_matrix(model, ks, wave.c, W)
            former = former_scalar_real_matrix(model, ks, wave.c, W)
            assert R.tobytes() == former.tobytes()

    @pytest.mark.parametrize("name", [n for n in sorted(BUILTIN_MODELS)
                                      if make_model(n).kind == SCALAR])
    def test_zero_wave_scalar_real_matrix_equals_the_former_form(self, name):
        # tobytes() tells -0 from +0: the k = 0 diagonal at mu = 0 is -0
        model = make_model(name)
        c = bifurcation_speed(model, 1, 1)
        mus = [0.0, 0.25, -0.25, 0.5]
        stack = hill._wavenumbers(np.array(mus), 8)
        for ks in (*(hill._wavenumbers(mu, 8) for mu in mus), stack):
            R = real_matrix(model, ks, c)
            former = former_zero_wave_real_matrix(model, ks, c)
            assert R.shape == former.shape
            assert R.tobytes() == former.tobytes()

    @pytest.mark.parametrize("mean", [0.0, 0.1])
    @pytest.mark.parametrize("name", NON_CANONICAL)
    def test_mirrored_slices_equal_the_former_sorted_negation(self, name,
                                                              mean):
        model, wave = finite_wave(name, mean)
        s = hill.full_spectrum(model, wave, self.GRID, 8)
        rows = [vals for _, vals in s.slices]
        n_neg = np.count_nonzero(s.mus < 0.0)
        assert s.mus[n_neg] == 0.0 and len(rows) == 2 * n_neg + 1
        for i in range(n_neg):
            assert rows[i].tobytes() == former_mirror(rows[-1 - i]).tobytes()


class TestStackedSolves:
    """full_spectrum builds and solves its slices in stacks of
    ``_stack_size`` slices, on up to ``_WORKERS`` threads; each slice is
    bitwise the solve of its own matrix, whatever the thread count."""

    @pytest.mark.parametrize("n, step", [(65, 8), (129, 4), (130, 4),
                                         (258, 2)])
    def test_every_stack_releases_the_gil(self, n, step):
        # the fewest slices with more than 500 outputs per eigvals call,
        # below which numpy holds the GIL
        assert hill._stack_size(n) == step
        assert (step - 1) * n <= hill._GIL_OUTPUTS == 500 < step * n

    @pytest.mark.parametrize("name", ["kdv", "fifth-order-scalar",
                                      "boussinesq-whitham"])
    def test_stacked_solves_equal_per_slice_solves(self, name, monkeypatch):
        model, wave = derived_slice_case(name)
        M = 16
        W = wave_part(model, wave, M)
        step = hill._stack_size(len(model.branches) * (2 * M + 1))
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda R: shapes.append(R.shape) or eigvals(R))
        monkeypatch.setattr(hill, "_WORKERS", 3)
        # two full stacks and a short one, solved in any order
        mus = [*np.linspace(-0.45, 0.45, 2 * step + 1), -0.0, 0.0]
        s = hill.full_spectrum(model, wave, mus, M)
        assert sorted(shape[0] for shape in shapes) == [3, step, step]
        assert [mu for mu, _ in s.slices] == sorted(mus)
        for mu, vals in s.slices:
            R = real_matrix(model, np.arange(-M, M + 1) + mu, wave.c, W)
            rho = eigvals(R)
            direct = (-rho.imag + 0.0) + 1j * rho.real
            direct = direct[np.lexsort((direct.real, direct.imag))]
            assert vals.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("name", ["fifth-order-scalar",
                                      "boussinesq-whitham"])
    def test_spectrum_does_not_depend_on_worker_count(self, name,
                                                      monkeypatch):
        model, wave = derived_slice_case(name)
        step = hill._stack_size(len(model.branches) * 33)
        # the mu >= 0 half is three full stacks and a short one of 2; with
        # more threads than stacks and a short switch interval, a stack
        # solved twice or skipped would change the bytes
        grid = hill.MuGridSpec(count=2 * (3 * step + 2))
        spectra = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(hill, "_WORKERS", workers)
                s = hill.full_spectrum(model, wave, grid, 16)
                spectra.add((s.mus.tobytes(),
                             *(vals.tobytes() for _, vals in s.slices)))
        finally:
            sys.setswitchinterval(interval)
        assert len(spectra) == 1

    def failing_solves(self, monkeypatch, fails):
        """Make eigvals raise LinAlgError where ``fails(start)`` holds for
        the first mu of the stack being solved; return the stack starts
        that failed and the threads alive before the solve."""
        starts, failed = {}, []
        wavenumbers, eigvals = hill._wavenumbers, np.linalg.eigvals

        def record(block, M):
            starts[threading.get_ident()] = float(block[0])
            return wavenumbers(block, M)

        def solve(R):
            start = starts[threading.get_ident()]
            if fails(start):
                failed.append(start)
                raise np.linalg.LinAlgError("injected")
            return eigvals(R)
        monkeypatch.setattr(hill, "_wavenumbers", record)
        monkeypatch.setattr(np.linalg, "eigvals", solve)
        return failed, set(threading.enumerate())

    def stack_range(self, mus, start, step):
        block = mus[list(mus).index(start):][:step]
        return f"eigensolver failed for mu in [{block[0]!r}, {block[-1]!r}]"

    def test_first_failing_stack_in_mu_order_is_raised(self, monkeypatch):
        model, wave = derived_slice_case("fifth-order-scalar")
        step = hill._stack_size(33)
        mus = np.linspace(0.0, 0.45, 5 * step)
        monkeypatch.setattr(hill, "_WORKERS", 3)
        both = threading.Barrier(2, timeout=60)

        def fails(start):
            # stacks 1 and 2 fail, once both are in flight
            if start not in (mus[step], mus[2 * step]):
                return False
            both.wait()
            return True
        failed, before = self.failing_solves(monkeypatch, fails)
        with pytest.raises(NumericalError,
                           match="^eigensolver failed for mu in ") as info:
            hill.full_spectrum(model, wave, mus, 16)
        assert sorted(failed) == [mus[step], mus[2 * step]]
        assert str(info.value) == self.stack_range(mus, mus[step], step)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert set(threading.enumerate()) == before

    def test_a_worker_failure_is_raised_and_no_thread_is_left(self,
                                                              monkeypatch):
        model, wave = derived_slice_case("fifth-order-scalar")
        step = hill._stack_size(33)
        mus = np.linspace(0.0, 0.45, 5 * step)
        monkeypatch.setattr(hill, "_WORKERS", 2)
        worker_failed = threading.Event()

        def fails(start):
            # the caller's solves wait for the worker's, which all fail
            if threading.current_thread() is threading.main_thread():
                assert worker_failed.wait(timeout=60)
                return False
            worker_failed.set()
            return True
        failed, before = self.failing_solves(monkeypatch, fails)
        with pytest.raises(NumericalError,
                           match="^eigensolver failed for mu in ") as info:
            hill.full_spectrum(model, wave, mus, 16)
        assert str(info.value) == self.stack_range(mus, min(failed), step)
        assert set(threading.enumerate()) == before


class TestZeroAmplitudeConsistency:
    """The zero wave's spectrum is the closed form -i*Omega_l(n + mu); the
    dense solves of ``hill_oracles`` check it."""
    MUS = (-0.4, -0.11, 0.08113883, 0.25, 0.49)

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_builtin_models_match_closed_form(self, name):
        model = make_model(name)
        c = bifurcation_speed(model, 1, 1)
        assert zero_amplitude_deviation(model, c, self.MUS, 16) <= 1e-8
        # one row and column of R per component and mode, d x d blocks of S
        d = len(model.branches)
        ks = np.arange(-16, 17) + self.MUS[0]
        assert real_matrix(model, ks, c).shape == (d * ks.size,) * 2
        assert hessian(model, self.MUS[0], c).shape == (d, d)

    @pytest.mark.parametrize("name, N", [
        *(pytest.param(name, 1, id=name) for name in sorted(BUILTIN_MODELS)),
        pytest.param("kdv", 2, id="kdv-N2")])
    def test_axis_eigenvalues_have_exactly_zero_real_part(self, name, N,
                                                          monkeypatch):
        model = make_model(name)
        c = bifurcation_speed(model, 1, N)
        wave = hill.zero_wave(model, c)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda R: calls.append(R.shape) or eigvals(R))
        for mu in self.MUS:
            vals = spectrum_at(model, wave, mu, 16)
            assert np.all(vals.real == 0.0)
            assert not np.any(np.signbit(vals.real))
        s = hill.full_spectrum(model, wave,
                               hill.MuGridSpec(count=24, windows=(0.1, 0.37)),
                               16)
        assert calls == []
        # the solved mu >= 0 rows are the sorted closed form, bit for bit;
        # Omega is evaluated on the same (slices, modes) array as in
        # full_spectrum
        n_neg = np.count_nonzero(s.mus < 0.0)
        ks = np.arange(-16, 17) + s.mus[n_neg:, None]
        rho = np.sort(np.concatenate([-eval_Omega(model, b.index, ks, c)
                                      for b in model.branches], axis=-1))
        assert s.values.real.tobytes() == np.zeros(rho.shape).tobytes()
        assert s.values.imag.tobytes() == (rho + 0.0).tobytes()
        # every slice read: the solved rows as they are, and each derived
        # mu < 0 row its partner's exact negation
        rows = np.array([vals for _, vals in s.slices])
        assert rows[n_neg:].tobytes() == s.values.tobytes()
        mirror = -rows[::-1][:n_neg, ::-1] + 0.0
        assert rows[:n_neg].tobytes() == mirror.tobytes()

    def test_fault_injection_detected(self):
        model = model_from_config(
            {"kind": "scalar", "omega1": "k^3", "params": {"sigma": 1.0}})
        delta = 1e-3
        perturbed = model_from_config(
            {"kind": "scalar", "omega1": f"k^3+{delta}*k",
             "params": {"sigma": 1.0}})
        clean = zero_amplitude_deviation(model, -1.0, self.MUS, 12)
        # the same dense spectra, measured against a perturbed closed form
        faulty = zero_amplitude_deviation(model, -1.0, self.MUS, 12,
                                          exact_model=perturbed)
        assert clean <= 1e-12
        assert faulty >= delta / 2.0


class TestBubbles:
    def test_zero_amplitude_has_no_bubbles(self):
        model = make_model("fifth-order-scalar")
        c = bifurcation_speed(model, 1, 1)
        s = hill.full_spectrum(model, hill.zero_wave(model, c),
                               hill.MuGridSpec(count=60), 16)
        assert hill.detect_bubbles(s) == []

    def test_fifth_order_bubble_near_predicted_ordinate(self):
        # the opposite-signature collision at mu ~ 0.3675 opens a bubble
        # at small amplitude; sample a narrow mu window around it
        model = make_model("fifth-order-scalar")
        wave = solve_wave_collocation(model, 0.02, M=32, steps=4)
        c0 = bifurcation_speed(model, 1, 1)
        events = [e for e in find_collisions(model, c0, 3)
                  if not e.at_origin]
        target = next(e for e in events
                      if abs(e.mu - 0.3675445) < 1e-4)
        mus = np.linspace(target.mu - 1e-2, target.mu + 1e-2, 81)
        s = hill.full_spectrum(model, wave, mus, 32)
        bubbles = hill.detect_bubbles(s, predictions=events)
        assert bubbles
        top = max(bubbles, key=lambda b: b.max_growth)
        assert top.max_growth > 1e-6
        assert abs(abs(top.center.imag) - target.lam.imag) < 5e-3
        assert top.nearest_event is target
        assert top.event_distance < 5e-3

    def test_a_bubble_never_links_to_an_equal_signature_prediction(self):
        # an equal-signature collision cannot open a bubble, so one placed
        # at the bubble's own ordinate is passed over for the
        # opposite-signature prediction that opened it
        model = make_model("fifth-order-scalar")
        wave = solve_wave_collocation(model, 0.02, M=32, steps=4)
        events = screen(model, bifurcation_speed(model, 1, 1), 3)
        target = next(e for e in events if abs(e.mu - 0.3675445) < 1e-4)
        assert target.verdict == VERDICT_POTENTIAL
        mus = np.linspace(target.mu - 1e-2, target.mu + 1e-2, 81)
        s = hill.full_spectrum(model, wave, mus, 32)
        growth = lambda b: b.max_growth
        center = max(hill.detect_bubbles(s, events), key=growth).center
        closer = dataclasses.replace(target, lam=1j * abs(center.imag),
                                     signature_product=1.0)
        assert closer.verdict == VERDICT_NONE
        top = max(hill.detect_bubbles(s, [closer, *events]), key=growth)
        assert top.nearest_event is target
        assert abs(abs(closer.lam.imag) - abs(top.center.imag)) == 0.0
        assert top.event_distance > 0.0

    def test_same_signature_collision_opens_no_bubble(self):
        # the (2, 1) collision pairs equal Krein signatures; the spectrum
        # stays on the imaginary axis near its mu to solver accuracy
        model = make_model("fifth-order-scalar")
        wave = solve_wave_collocation(model, 0.02, M=32, steps=4)
        mus = np.linspace(-0.2154767 - 2e-3, -0.2154767 + 2e-3, 41)
        s = hill.full_spectrum(model, wave, mus, 32)
        assert hill.detect_bubbles(s) == []

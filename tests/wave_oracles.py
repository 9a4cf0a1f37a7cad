"""The two-branch Stokes seed, Newton continuation and Hill wave term, kept
as oracles for the one traveling equation K*U - s(c) U + N(U) = r of
``hfstab.models.traveling_equation``.

Scalar models solve K*U - c U + sigma U^(p+1)/(p+1) = B here, and
Boussinesq-Whitham models c^2 Q - K*Q - alpha Q^2 - A = 0, each with its own
seed formulas, residual rows and Jacobian.  The library's Boussinesq-Whitham
system is this one with its equation rows and its r = -A column negated,
which LU with partial pivoting solves to the same bits, so the two must agree
bit for bit on every wave.  The Hill wave term -sign * N'(U) is likewise
written out per kind here, as -sigma U^p and 2 alpha Q.
"""

import math

import numpy as np

from hfstab.models import (SCALAR, NONCANONICAL_BW, TravelingWave,
                           bifurcation_speed, _cosine_coeffs, _exp_coeffs,
                           _toeplitz)
from hfstab.waves import MAX_NEWTON_STEPS, RESIDUAL_TOL


def stokes_wave(model, epsilon, order):
    """Stokes expansion of orders 1..3, one formula set per model kind."""
    kernel = model.kernel_symbol
    c0 = bifurcation_speed(model, 1, 1)
    coeffs = [0.0, float(epsilon), 0.0, 0.0][:order + 1]
    c = c0
    const = 0.0
    if order >= 2:
        q = model.sigma / 2.0 if model.kind == SCALAR else model.alpha
        if model.kind == SCALAR:
            # (kernel(j) - c0) a_j + [quadratic harmonics] = 0
            a2 = -q / (2.0 * (kernel(2.0) - c0)) * epsilon ** 2
            coeffs[2] = a2
            c = c0 + q * a2
            if order == 3:
                coeffs[3] = -q * a2 * epsilon / (kernel(3.0) - c0)
        else:
            # (c0^2 - c2(j)) a_j = alpha * [harmonics of Q^2]
            a2 = q / (2.0 * (c0 * c0 - kernel(2.0))) * epsilon ** 2
            coeffs[2] = a2
            c = c0 + q * a2 / (2.0 * c0)
            if order == 3:
                coeffs[3] = q * a2 * epsilon / (c0 * c0 - kernel(3.0))
        sq = sum(v * v for v in coeffs) / 2.0
        const = q * sq if model.kind == SCALAR else -q * sq
    return TravelingWave(model=model.name, c=c, coefficients=coeffs,
                         constant=const)


def solve_wave_collocation(model, target_amplitude, M=64, steps=10,
                           mean=0.0):
    """Newton continuation in a_1 with unknowns a_0..a_M, c and B or A."""
    bw = model.kind == NONCANONICAL_BW
    sym = model.kernel_symbol(np.arange(M + 1.0))
    ngrid = 4 * M
    x = 2.0 * math.pi * np.arange(ngrid) / ngrid
    cosj = np.cos(np.outer(np.arange(M + 1), x))

    seed_order = 3 if (bw or model.power == 1) else 1
    seed = stokes_wave(model, target_amplitude / steps, seed_order)
    a = np.zeros(M + 1)
    a[:len(seed.coefficients)] = seed.coefficients
    a[0] = mean
    c = seed.c
    const = 0.0
    for i in range(1, steps + 1):
        target = target_amplitude * i / steps
        a, c, const = _newton_solve(model, sym, cosj, x, a, c, const,
                                    target, mean, bw)
    return TravelingWave(model=model.name, c=float(c),
                         coefficients=a.tolist(), constant=float(const))


def _newton_solve(model, sym, cosj, x, a, c, const, target, mean, bw):
    M = a.size - 1
    p = model.power
    for _ in range(MAX_NEWTON_STEPS):
        u = cosj.T @ a
        if bw:
            # residual form: c^2 Q - K*Q - alpha Q^2 - A = 0
            nl = -model.alpha * u * u
            w = -2.0 * model.alpha * u
            lin = (c * c - sym) * a
            dc = 2.0 * c * a
        else:
            nl = model.sigma * u ** (p + 1) / (p + 1)
            w = model.sigma * u ** p
            lin = (sym - c) * a
            dc = -a
        F = lin + _cosine_coeffs(nl, M)
        F[0] -= const
        res = np.concatenate([F, [a[1] - target, a[0] - mean]])
        if np.max(np.abs(res)) <= RESIDUAL_TOL:
            return a, c, const

        spec = np.fft.rfft(w[None, :] * cosj, axis=1)
        conv = np.empty((M + 1, M + 1))
        conv[0, :] = spec[:, 0].real / x.size
        conv[1:, :] = 2.0 * spec[:, 1:M + 1].real.T / x.size

        n = M + 3
        J = np.zeros((n, n))
        J[:M + 1, :M + 1] = conv
        idx = np.arange(M + 1)
        J[idx, idx] += (c * c - sym) if bw else (sym - c)
        J[:M + 1, M + 1] = dc
        J[0, M + 2] = -1.0
        J[M + 1, 1] = 1.0
        J[M + 2, 0] = 1.0
        delta = np.linalg.solve(J, -res)
        a = a + delta[:M + 1]
        c = c + delta[M + 1]
        const = const + delta[M + 2]
    raise AssertionError(f"oracle Newton did not converge at {target:g}")


def wave_part(model, wave, M):
    """The wave's Toeplitz matrix W in S[0, 0] on the modes |n| <= M:
    multiplication by -sigma*U^p (scalar) or 2*alpha*Q (Boussinesq-Whitham)."""
    if model.kind == SCALAR:
        return -_toeplitz(_scalar_nonlinearity(model, wave, M), M)
    a = np.asarray(wave.coefficients, dtype=float)
    return 2.0 * model.alpha * _toeplitz(_exp_coeffs(a, 2 * M), M)


def _scalar_nonlinearity(model, wave, M):
    """Exponential coefficients of sigma*U^p over shifts -2M..2M."""
    if model.power == 1:
        return model.sigma * _exp_coeffs(
            np.asarray(wave.coefficients, dtype=float), 2 * M)
    ngrid = max(8 * M, 4 * (len(wave.coefficients) - 1), 64)
    x = 2.0 * math.pi * np.arange(ngrid) / ngrid
    w = model.sigma * wave.profile(x) ** model.power
    spec = np.fft.rfft(w) / ngrid
    out = np.zeros(4 * M + 1, dtype=float)
    top = min(2 * M, spec.size - 1)
    out[2 * M] = spec[0].real
    out[2 * M + 1:2 * M + 1 + top] = spec[1:top + 1].real
    out[2 * M - top:2 * M] = spec[top:0:-1].real
    return out

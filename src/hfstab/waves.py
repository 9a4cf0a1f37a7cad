"""Small-amplitude periodic traveling waves.

Scalar models solve the integrated traveling equation

    K*U - c U + sigma U^(p+1)/(p+1) = B,

where K is the nonlocal kernel with symbol c(k) = omega(k)/k, and the
two-component Boussinesq-Whitham form solves

    c^2 Q = alpha Q^2 + K*Q + A,

with kernel symbol c^2(k).  Waves are even, 2*pi-periodic cosine series.
A Stokes expansion seeds a Newton/cosine-collocation continuation in the
first cosine coefficient; the speed (and integration constant) are solved
for while u_1 is pinned, which removes the fold at the bifurcation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (ModelSpec, TravelingWave, SCALAR, NONCANONICAL_BW,
                     ModelError, bifurcation_speed, make_model)

__all__ = [
    "ResonanceError", "WaveConvergenceError", "ModesInsufficientError",
    "FlatStateReport", "stokes_wave", "solve_wave_collocation",
    "wave_residual", "bw_flat_state_analysis",
]

RESIDUAL_TOL = 1e-11
MAX_NEWTON_STEPS = 50


class ResonanceError(ModelError):
    """A Stokes denominator Omega(j) vanished; the expansion is singular."""


class WaveConvergenceError(ModelError):
    pass


class ModesInsufficientError(ModelError):
    pass


def _kernel(model: ModelSpec):
    """Symbol of the nonlocal term in the integrated traveling equation."""
    kernel = {SCALAR: model.kernel_symbol,
              NONCANONICAL_BW: model.c2_symbol}.get(model.kind)
    if kernel is None:
        raise ModelError(
            f"traveling-wave construction needs the kernel symbol of a scalar "
            f"or noncanonical-bw model; {model.name!r} ({model.kind}) has none")
    return kernel


def _quadratic_coeff(model: ModelSpec) -> float:
    """Coefficient of the quadratic term in the integrated equation."""
    if model.kind == SCALAR:
        if model.power != 1:
            raise ModelError(
                "Stokes hierarchy implemented for quadratic nonlinearity "
                f"(power 1), model {model.name!r} has power {model.power}")
        return model.sigma / 2.0
    return model.alpha


def stokes_wave(model: ModelSpec, epsilon: float, order: int) -> TravelingWave:
    """Stokes expansion about the first cosine harmonic, orders 1..3.

    The order-1 wave is epsilon*cos(x) at the bifurcation speed omega(1).
    Higher orders fill in the cos(2x) and cos(3x) harmonics and the O(eps^2)
    speed correction, with the mean gauged to zero.

    Raises ResonanceError when a divisor Omega(j), j = 2..order, vanishes.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order!r}")
    kernel = _kernel(model)
    c0 = bifurcation_speed(model, 1, 1)
    coeffs = [0.0, float(epsilon), 0.0, 0.0][:order + 1]
    c = c0
    const = 0.0
    if order >= 2:
        q = _quadratic_coeff(model)
        if model.kind == SCALAR:
            # (kernel(j) - c0) a_j + [quadratic harmonics] = 0
            d2 = kernel(2.0) - c0
            _check_divisor(d2, 2)
            a2 = -q / (2.0 * d2) * epsilon ** 2
            coeffs[2] = a2
            c = c0 + q * a2  # speed correction q*A2*eps^2, a2 = A2*eps^2
            if order == 3:
                d3 = kernel(3.0) - c0
                _check_divisor(d3, 3)
                coeffs[3] = -q * a2 * epsilon / d3
        else:
            # (c0^2 - c2(j)) a_j = alpha * [harmonics of Q^2]
            d2 = c0 * c0 - kernel(2.0)
            _check_divisor(d2, 2)
            a2 = q / (2.0 * d2) * epsilon ** 2
            coeffs[2] = a2
            c = c0 + q * a2 / (2.0 * c0)  # from 2 c0 c2 = alpha A2
            if order == 3:
                d3 = c0 * c0 - kernel(3.0)
                _check_divisor(d3, 3)
                coeffs[3] = q * a2 * epsilon / d3
        # integration constant: mean of the zero-mean-gauge equation
        sq = sum(v * v for v in coeffs) / 2.0
        const = q * sq if model.kind == SCALAR else -q * sq
    return TravelingWave(model=model.name, c=c, coefficients=coeffs,
                         constant=const)


def _check_divisor(d: float, j: int) -> None:
    if abs(d) < 1e-10:
        raise ResonanceError(
            f"Stokes divisor at harmonic {j} is {d:.3e}; resonant bifurcation")


# --------------------------------------------------------------------------
# Cosine-collocation Newton continuation

def _cosine_coeffs(values: np.ndarray, M: int) -> np.ndarray:
    """First M+1 cosine coefficients of even grid samples (length >= 2M+2)."""
    n = values.size
    spec = np.fft.rfft(values)
    out = np.empty(M + 1)
    out[0] = spec[0].real / n
    out[1:] = 2.0 * spec[1:M + 1].real / n
    return out


def solve_wave_collocation(model: ModelSpec, target_amplitude: float,
                           M: int = 64, steps: int = 10,
                           mean: float = 0.0,
                           force: bool = False) -> TravelingWave:
    """Newton continuation in the first cosine coefficient.

    Unknowns are the cosine coefficients a_0..a_M, the speed c, and the
    integration constant (B or A).  The rows pinning a_1 to the continuation
    target and a_0 to ``mean`` close the system; phase is fixed by evenness.
    Converged when the max cosine-space residual is <= 1e-11, which keeps
    the pointwise traveling-equation residual comfortably below 1e-10.
    """
    if M < 16:
        raise ValueError(f"M must be >= 16, got {M!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    kernel = _kernel(model)
    bw = model.kind == NONCANONICAL_BW
    if bw and mean < 0.0 and not force:
        raise ModelError(
            "boussinesq-whitham continuation requires a nonnegative mean "
            "(negative-average states are ill-posed); pass force=True to "
            "override")
    c0 = bifurcation_speed(model, 1, 1)
    if target_amplitude == 0.0:
        return TravelingWave(model=model.name, c=c0,
                             coefficients=[mean] + [0.0] * M)

    sym = kernel(np.arange(M + 1.0))
    ngrid = 4 * M
    x = 2.0 * math.pi * np.arange(ngrid) / ngrid
    cosj = np.cos(np.outer(np.arange(M + 1), x))  # (M+1, ngrid) basis rows

    seed_order = 3 if (bw or model.power == 1) else 1
    first = target_amplitude / steps
    seed = stokes_wave(model, first, seed_order)
    a = np.zeros(M + 1)
    a[:len(seed.coefficients)] = seed.coefficients
    a[0] = mean
    c = seed.c
    const = 0.0

    for i in range(1, steps + 1):
        target = target_amplitude * i / steps
        a, c, const = _newton_solve(model, kernel, sym, cosj, x, a, c, const,
                                    target, mean, bw)

    tail = np.max(np.abs(a[-2:]))
    if tail > 1e-12:
        raise ModesInsufficientError(
            f"coefficients do not decay below 1e-12 within M={M} "
            f"(tail {tail:.3e}); increase M")
    return TravelingWave(model=model.name, c=float(c),
                         coefficients=a.tolist(), constant=float(const))


def _newton_solve(model, kernel, sym, cosj, x, a, c, const, target, mean, bw):
    M = a.size - 1
    p = model.power
    for _ in range(MAX_NEWTON_STEPS):
        u = cosj.T @ a
        if bw:
            # residual form: c^2 Q - K*Q - alpha Q^2 - A = 0
            nl = -model.alpha * u * u
            w = -2.0 * model.alpha * u         # d(nl)/dU on the grid
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

        # conv[m, j] = m-th cosine coefficient of w(x) cos(j x)
        prods = w[None, :] * cosj              # (M+1 columns j, ngrid)
        spec = np.fft.rfft(prods, axis=1)
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
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as exc:
            raise WaveConvergenceError(
                f"singular Newton system at target {target:g}") from exc
        a = a + delta[:M + 1]
        c = c + delta[M + 1]
        const = const + delta[M + 2]
    raise WaveConvergenceError(
        f"Newton failed to reach residual {RESIDUAL_TOL:g} in "
        f"{MAX_NEWTON_STEPS} steps at target amplitude {target:g}")


def wave_residual(model: ModelSpec, wave: TravelingWave) -> float:
    """Max traveling-equation residual over 4M collocation points."""
    kernel = _kernel(model)
    a = np.asarray(wave.coefficients, dtype=float)
    M = a.size - 1
    ngrid = max(4 * M, 64)
    x = 2.0 * math.pi * np.arange(ngrid) / ngrid
    cosj = np.cos(np.outer(np.arange(M + 1), x))
    u = cosj.T @ a
    sym = kernel(np.arange(M + 1.0))
    conv = cosj.T @ (sym * a)
    if model.kind == NONCANONICAL_BW:
        r = model.alpha * u * u + conv + wave.constant - wave.c ** 2 * u
    else:
        p = model.power
        r = (conv - wave.c * u
             + model.sigma * u ** (p + 1) / (p + 1) - wave.constant)
    return float(np.max(np.abs(r)))


# --------------------------------------------------------------------------
# Boussinesq-Whitham flat states

@dataclass(frozen=True)
class FlatStateReport:
    wellposed: bool
    cutoff_k: float | None


def bw_flat_state_analysis(a: float, g: float = 1.0,
                           h: float = 1.0) -> FlatStateReport:
    """Well-posedness of the linearization about the flat state Q = a.

    The flat-state dispersion is omega^2 = k^2 (2a + c^2(k)) with
    c^2(k) = g tanh(kh)/k.  For a >= 0 both branches stay real.  For a < 0
    the symbol 2a + c^2(k) decreases through zero at a finite cutoff_k,
    beyond which omega is imaginary and the problem is ill-posed.
    """
    if not (g > 0 and h > 0):
        raise ValueError("g and h must be positive")
    if a >= 0.0:
        return FlatStateReport(wellposed=True, cutoff_k=None)
    c2 = make_model("boussinesq-whitham", {"g": g, "h": h}).c2_symbol
    symbol = lambda k: 2.0 * a + c2(k)

    if symbol(0.0) <= 0.0:
        return FlatStateReport(wellposed=False, cutoff_k=0.0)
    lo, hi = 0.0, 1.0
    while symbol(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:  # pragma: no cover - symbol decays to 2a < 0
            raise ValueError("no sign change found for cutoff bisection")
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if symbol(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return FlatStateReport(wellposed=False, cutoff_k=0.5 * (lo + hi))

"""Small-amplitude periodic traveling waves.

Every model hfstab builds waves for solves one integrated traveling
equation, K*U - s(c) U + N(U) = r, stated once by
``models.traveling_equation``, which ``models.wave_part`` also reads for
the wave's term N'(U).  Waves are even, 2*pi-periodic cosine
series.  A Stokes expansion seeds a Newton/cosine-collocation continuation
in the first cosine coefficient; the speed (and integration constant) are
solved for while u_1 is pinned, which removes the fold at the bifurcation
point.  ``_cosine_coeffs`` and its inverse ``_cosine_values`` map grid
values to cosine coefficients and back by real FFTs.
"""

from __future__ import annotations

import math

import numpy as np

from .models import (ModelSpec, TravelingWave, NONCANONICAL_BW, ModelError,
                     NumericalError, bifurcation_speed, traveling_equation)

__all__ = ["solve_wave_collocation", "wave_residual", "flat_state_cutoff"]

RESIDUAL_TOL = 1e-11
MAX_NEWTON_STEPS = 50
MAX_STEPS = 10_000      # continuation increments a solve may take


def _stokes_seed(eq, c0: float, epsilon: float) -> tuple[list[float], float]:
    """The Newton seed: the Stokes expansion of ``eq`` about epsilon*cos(x)
    at the bifurcation speed c0, as (cosine coefficients, speed).

    A quadratic N = q U^2 (p = 1, q = kappa/2) gives third order: the
    cos(2x) and cos(3x) harmonics and the O(eps^2) speed correction, with
    the mean gauged to zero.  Any other N gives the first-order
    epsilon*cos(x) at c0.  A vanishing divisor K(j) - s(c0), j = 2, 3, is a
    resonant bifurcation (NumericalError).
    """
    if eq.p != 1:
        return [0.0, float(epsilon)], c0
    q = eq.kappa / 2.0
    # (K(j) - s(c0)) a_j + q [harmonic j of U^2] = 0
    d2 = eq.kernel(2.0) - eq.s(c0)
    _check_divisor(d2, 2)
    try:
        a2 = -q / (2.0 * d2) * epsilon ** 2
    except OverflowError:
        raise NumericalError(f"the Stokes expansion overflows at "
                             f"amplitude {epsilon:g}") from None
    d3 = eq.kernel(3.0) - eq.s(c0)
    _check_divisor(d3, 3)
    a3 = -q * a2 * epsilon / d3
    # harmonic 1: s'(c0) (c - c0) = q a2
    return [0.0, float(epsilon), a2, a3], c0 + q * a2 / eq.ds(c0)


def _check_divisor(d: float, j: int) -> None:
    if abs(d) < 1e-10:
        raise NumericalError(
            f"Stokes divisor at harmonic {j} is {d:.3e}; resonant bifurcation")


# --------------------------------------------------------------------------
# Cosine-collocation Newton continuation

def solve_wave_collocation(model: ModelSpec, target_amplitude: float,
                           M: int = 64, steps: int = 10,
                           mean: float = 0.0,
                           force: bool = False) -> TravelingWave:
    """Newton continuation in the first cosine coefficient.

    Unknowns are the cosine coefficients a_0..a_M, the speed c, and the
    integration constant r.  The rows pinning a_1 to the continuation
    target and a_0 to ``mean`` close the system; phase is fixed by evenness.
    The target rises to ``target_amplitude`` in ``steps`` equal increments,
    at most ``MAX_STEPS``.  Converged when the max cosine-space residual is
    <= 1e-11, which keeps the pointwise traveling-equation residual
    comfortably below 1e-10.
    Amplitude 0 gives the zero wave at the bifurcation speed, so a nonzero
    mean there is a ValueError.  A Boussinesq-Whitham mean whose flat state
    has a ``flat_state_cutoff`` is ill-posed and refused unless ``force``.
    A resonant bifurcation, where a divisor of the Stokes seed vanishes, is
    refused as a NumericalError before any Newton step, and a non-finite
    residual (an amplitude too large for floats) stops the solve at the
    step that meets it.
    """
    if M < 16:
        raise ValueError(f"wave cosine modes M must be >= 16, got {M!r}")
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be in [1, {MAX_STEPS}], got {steps!r}")
    eq = traveling_equation(model)
    if model.kind == NONCANONICAL_BW and not force:
        cutoff = flat_state_cutoff(model, mean)
        if cutoff is not None:
            sign = "nonnegative" if model.alpha > 0.0 else "nonpositive"
            raise ModelError(
                f"boussinesq-whitham mean {mean!r} is ill-posed beyond "
                f"k = {cutoff:.6g} (alpha = {model.alpha!r}; a {sign} mean "
                f"is well-posed)")
    c0 = bifurcation_speed(model, 1, 1)
    if target_amplitude == 0.0:
        if mean != 0.0:
            raise ValueError(f"amplitude 0 gives the zero wave, whose mean "
                             f"is 0, not {mean!r}")
        return TravelingWave(model=model.name, c=c0,
                             coefficients=[mean] + [0.0] * M)

    sym = eq.kernel(np.arange(M + 1.0))
    ngrid = 4 * M
    x = 2.0 * math.pi * np.arange(ngrid) / ngrid
    cosj = np.cos(np.outer(np.arange(M + 1), x))  # (M+1, ngrid) basis rows

    seed, c = _stokes_seed(eq, c0, target_amplitude / steps)
    a = np.zeros(M + 1)
    a[:len(seed)] = seed
    a[0] = mean
    r = 0.0

    for i in range(1, steps + 1):
        target = target_amplitude * i / steps
        a, c, r = _newton_solve(eq, sym, cosj, a, c, r, target, mean)

    tail = np.max(np.abs(a[-2:]))
    if tail > 1e-12:
        raise NumericalError(
            f"coefficients do not decay below 1e-12 within M={M} "
            f"(tail {tail:.3e}); increase M")
    return TravelingWave(model=model.name, c=float(c),
                         coefficients=a.tolist(), constant=float(eq.sign * r))


def _cosine_coeffs(values: np.ndarray, M: int) -> np.ndarray:
    """First M+1 cosine coefficients of even grid samples along the last
    axis (length >= 2M+2)."""
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    out = np.empty(values.shape[:-1] + (M + 1,))
    out[..., 0] = spec[..., 0].real / n
    out[..., 1:] = 2.0 * spec[..., 1:M + 1].real / n
    return out


def _cosine_values(a: np.ndarray, n: int) -> np.ndarray:
    """The cosine series with coefficients a at x_j = 2*pi*j/n, j < n, for
    n > 2(a.size - 1): the inverse of ``_cosine_coeffs``."""
    spec = np.zeros(n // 2 + 1)
    spec[:a.size] = a
    spec[1:] /= 2.0
    return np.fft.irfft(spec, n, norm="forward")


@np.errstate(all="ignore")   # a non-finite residual raises instead
def _newton_solve(eq, sym, cosj, a, c, r, target, mean):
    M = a.size - 1
    for step in range(1, MAX_NEWTON_STEPS + 1):
        u = cosj.T @ a
        lin = (sym - eq.s(c)) * a
        F = lin + _cosine_coeffs(eq.N(u), M)
        F[0] -= r
        res = np.concatenate([F, [a[1] - target, a[0] - mean]])
        if not np.isfinite(res).all():
            raise NumericalError(
                f"non-finite Newton residual at step {step} of target "
                f"amplitude {target:g}")
        if np.max(np.abs(res)) <= RESIDUAL_TOL:
            return a, c, r

        # conv[m, j] = m-th cosine coefficient of N'(U(x)) cos(j x)
        conv = _cosine_coeffs(eq.dN(u)[None, :] * cosj, M).T

        n = M + 3
        J = np.zeros((n, n))
        J[:M + 1, :M + 1] = conv
        idx = np.arange(M + 1)
        J[idx, idx] += sym - eq.s(c)
        J[:M + 1, M + 1] = -eq.ds(c) * a
        J[0, M + 2] = -1.0
        J[M + 1, 1] = 1.0
        J[M + 2, 0] = 1.0
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular Newton system at target {target:g}") from exc
        a = a + delta[:M + 1]
        c = c + delta[M + 1]
        r = r + delta[M + 2]
    raise NumericalError(
        f"Newton failed to reach residual {RESIDUAL_TOL:g} in "
        f"{MAX_NEWTON_STEPS} steps at target amplitude {target:g}")


def wave_residual(model: ModelSpec, wave: TravelingWave) -> float:
    """Max traveling-equation residual over max(4M, 64) collocation points,
    U and K*U each from one inverse real FFT."""
    eq = traveling_equation(model)
    a = np.asarray(wave.coefficients, dtype=float)
    ngrid = max(4 * (a.size - 1), 64)
    u = _cosine_values(a, ngrid)
    res = (_cosine_values(eq.kernel(np.arange(float(a.size))) * a, ngrid)
           - eq.s(wave.c) * u + eq.N(u) - eq.sign * wave.constant)
    return float(np.max(np.abs(res)))


# --------------------------------------------------------------------------
# Boussinesq-Whitham flat states

def flat_state_cutoff(model: ModelSpec, q: float) -> float | None:
    """The wavenumber beyond which the flat state Q = q is ill-posed.

    Linearised about Q = q, a Boussinesq-Whitham model has S[0, 0] =
    2*alpha*q + c^2(k), and omega is imaginary where that is negative: from
    k = 0 on (0.0), or beyond the first zero, found by bisection.  None
    (well-posed) when alpha*q >= 0 or when no zero lies below k = 1e12.
    """
    if model.kind != NONCANONICAL_BW:
        raise ModelError(f"a {model.kind} model has no flat-state cutoff")
    if model.alpha * q >= 0.0:
        return None
    shift, c2 = 2.0 * model.alpha * q, model.kernel_symbol
    symbol = lambda k: shift + c2(k)
    if symbol(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while symbol(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            return None
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if symbol(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

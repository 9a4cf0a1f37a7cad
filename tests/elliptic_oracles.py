"""Complete elliptic integrals, Jacobi elliptic functions, and the exact
cnoidal/snoidal traveling waves of the KdV and mKdV equations, kept as
test oracles for the Newton waves of ``hfstab.waves`` and the Hill spectra
of ``hfstab.hill``.

K(kappa) uses the arithmetic-geometric mean; sn/cn/dn use the descending
Landen transformation seeded by the same AGM sequence, which is uniformly
accurate without external dependencies.  The waves are sampled and cut to
cosine coefficients here, not by ``hfstab.waves``, so the oracle stays
independent of the code it checks.
"""

from __future__ import annotations

import math

import numpy as np

from hfstab.models import TravelingWave

__all__ = [
    "elliptic_K", "jacobi_sn", "jacobi_cn", "jacobi_dn",
    "kdv_cnoidal", "mkdv_cn_wave", "mkdv_sn_wave",
]


def _check_modulus(kappa: float) -> None:
    if not (0.0 <= kappa < 1.0):
        raise ValueError(f"elliptic modulus must lie in [0, 1), got {kappa!r}")


def _agm_sequence(kappa: float) -> tuple[list[float], list[float]]:
    """AGM iterates a_i, c_i for modulus kappa, to machine precision."""
    a, b = 1.0, math.sqrt(1.0 - kappa * kappa)
    a_seq, c_seq = [a], [kappa]
    while abs(a - b) > 1e-16 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        a_seq.append(a)
        c_seq.append(0.5 * (a_seq[-2] - b))
        if len(a_seq) > 64:  # pragma: no cover - AGM converges quadratically
            break
    return a_seq, c_seq


def elliptic_K(kappa: float) -> float:
    """Complete elliptic integral of the first kind, via the AGM."""
    _check_modulus(kappa)
    a_seq, _ = _agm_sequence(kappa)
    return math.pi / (2.0 * a_seq[-1])


def _sncndn(u: float, kappa: float) -> tuple[float, float, float]:
    """sn, cn, dn by the descending Landen transformation over the AGM scale."""
    mc = 1.0 - kappa * kappa  # complementary parameter, > 0 for kappa < 1
    a, dn = 1.0, 1.0
    em, en = [], []
    c = 1.0
    for _ in range(24):
        em.append(a)
        mc = math.sqrt(mc)
        en.append(mc)
        c = 0.5 * (a + mc)
        if abs(a - mc) <= 1e-16 * a:
            break
        mc *= a
        a = c
    u = u * c
    sn, cn = math.sin(u), math.cos(u)
    if sn != 0.0:
        a = cn / sn
        c *= a
        for b, e in zip(reversed(em), reversed(en)):
            a *= c
            c *= dn
            dn = (e + a) / (b + a)
            a = c / b
        a = 1.0 / math.sqrt(c * c + 1.0)
        sn = a if sn >= 0.0 else -a
        cn = c * sn
    return sn, cn, dn


def jacobi_sn(u: float, kappa: float) -> float:
    """Jacobi elliptic sine; sn(u, 0) = sin(u)."""
    _check_modulus(kappa)
    return _sncndn(u, kappa)[0]


def jacobi_cn(u: float, kappa: float) -> float:
    """Jacobi elliptic cosine; cn(u, 0) = cos(u)."""
    _check_modulus(kappa)
    return _sncndn(u, kappa)[1]


def jacobi_dn(u: float, kappa: float) -> float:
    """Jacobi dn; strictly positive for kappa in [0, 1)."""
    _check_modulus(kappa)
    return _sncndn(u, kappa)[2]


# --------------------------------------------------------------------------
# Closed-form traveling waves (period 2*pi)

_GRID = 512
_MODES = 64


def _cosine_wave(model: str, c: float, profile, sigma: float,
                 power: int) -> TravelingWave:
    x = 2.0 * math.pi * np.arange(_GRID) / _GRID
    u = np.array([profile(xi) for xi in x])
    spec = np.fft.rfft(u)
    coeffs = np.zeros(_MODES + 1)
    coeffs[0] = spec[0].real / _GRID
    coeffs[1:] = 2.0 * spec[1:_MODES + 1].real / _GRID
    # integration constant of -cU + sigma U^(p+1)/(p+1) + U'' = B;
    # the mean of U'' vanishes, so B is the mean of the first two terms
    B = float(np.mean(-c * u + sigma * u ** (power + 1) / (power + 1)))
    return TravelingWave(model=model, c=c, coefficients=coeffs.tolist(),
                         constant=B)


def kdv_cnoidal(kappa: float) -> TravelingWave:
    """2*pi-periodic cnoidal wave of KdV (sigma = 1).

    Speed c(kappa) = 4 K^2 (2 kappa^2 - 1) / pi^2; the branch starts at
    (c, amplitude) = (-1, 0) as kappa -> 0.
    """
    _check_modulus(kappa)
    K = elliptic_K(kappa)
    c = 4.0 * K * K * (2.0 * kappa * kappa - 1.0) / math.pi ** 2
    amp = 12.0 * (kappa * K / math.pi) ** 2
    return _cosine_wave(
        "kdv", c, lambda x: amp * jacobi_cn(K * x / math.pi, kappa) ** 2,
        sigma=1.0, power=1)


def mkdv_cn_wave(kappa: float) -> TravelingWave:
    """Focusing-mKdV (sigma = 3) cn wave, with the KdV speed curve."""
    _check_modulus(kappa)
    K = elliptic_K(kappa)
    c = 4.0 * K * K * (2.0 * kappa * kappa - 1.0) / math.pi ** 2
    amp = 2.0 * math.sqrt(2.0) * kappa * K / math.pi
    return _cosine_wave(
        "mkdv-focusing", c,
        lambda x: amp * jacobi_cn(2.0 * K * x / math.pi, kappa),
        sigma=3.0, power=2)


def mkdv_sn_wave(kappa: float) -> TravelingWave:
    """Defocusing-mKdV (sigma = -3) sn wave.

    Speed c(kappa) = -4 (1 + kappa^2) K^2 / pi^2.  The sn profile is odd;
    it is shifted by a quarter period so the stored profile is even,
    which leaves the traveling equation invariant.
    """
    _check_modulus(kappa)
    K = elliptic_K(kappa)
    c = -4.0 * (1.0 + kappa * kappa) * K * K / math.pi ** 2
    amp = 2.0 * math.sqrt(2.0) * kappa * K / math.pi
    return _cosine_wave(
        "mkdv-defocusing", c,
        lambda x: amp * jacobi_sn(2.0 * K * (x + math.pi / 2.0) / math.pi, kappa),
        sigma=-3.0, power=2)

"""Dense zero-amplitude Hill spectra: the check on the closed form that
``hill.full_spectrum`` returns for the zero wave.  And the former forms of
two bitwise-exact steps, which the tests hold the current ones to: the
scalar real Hill matrix and the derivation of a mirrored slice.

The dense spectra come from the assembled real Hill matrices
(``models.real_matrix``) and ``np.linalg.eigvals``, never from
``full_spectrum``, so they test the closed form rather than repeat it.
"""

import math

import numpy as np

from hfstab.models import eval_Omega, real_matrix


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite sets of complex numbers."""
    if a.size == 0 or b.size == 0:
        return math.inf if a.size != b.size else 0.0
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def zero_amplitude_deviation(model, c: float, mus, M: int,
                             exact_model=None) -> float:
    """Max Hausdorff distance, over mus, between the eigenvalues i*rho of
    the zero wave's real Hill matrices R of ``model``, from one stacked
    eigvals call, and the closed form -i*Omega_l(n + mu), |n| <= M, of
    ``exact_model`` (default ``model``)."""
    ks = np.arange(-M, M + 1) + np.asarray(mus, dtype=float)[:, None]
    dense = 1j * np.linalg.eigvals(real_matrix(model, ks, c))
    exact_model = exact_model or model
    exact = np.concatenate([-1j * eval_Omega(exact_model, b.index, ks, c)
                            for b in exact_model.branches], axis=-1)
    return max(map(hausdorff, dense, exact))


def former_scalar_real_matrix(model, ks: np.ndarray, c: float,
                              W: np.ndarray) -> np.ndarray:
    """Reference: a scalar model's real Hill matrix R as it was built, the
    diagonal -Omega(k) written into zeros and k*W added to the whole."""
    n = ks.shape[-1]
    R = np.zeros(ks.shape[:-1] + (n, n))
    R[..., np.arange(n), np.arange(n)] = -eval_Omega(model, 1, ks, c)
    R += ks[..., :, None] * W
    return R


def former_mirror(partner: np.ndarray) -> np.ndarray:
    """Reference: the slice at -mu as it was derived from the sorted slice
    at mu, negated (+ 0.0 turns -0 into +0) and sorted again by (Im, Re)."""
    vals = -partner + 0.0
    return vals[np.lexsort((vals.real, vals.imag))]

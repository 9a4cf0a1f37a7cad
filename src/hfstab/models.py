"""Model catalog, dispersion relations, and the linearised operator L = J·S.

A model is a Hamiltonian PDE reduced to the data needed by the instability
analysis: its Poisson-structure kind, dispersion branches, and the symbol
functions of the quadratic Hamiltonian.  ``hessian`` and ``real_matrix``
turn these into one real form of L = J·S: the real symmetric Hessian S_R
and a scalar Poisson factor j(k) per model kind, from which both the Krein
signatures (wᵀS_R w) and the real Hill matrices R, with L = i·P R P^-1, are
computed; ``wave_part`` adds a wave's term.
The nonlinearity is stated once, in ``traveling_equation``: ``waves``
solves that equation, and a wave's Hill-matrix term is its N'(U).

Built-in model identifiers: ``gkdv``, ``kdv``, ``mkdv-focusing``,
``mkdv-defocusing``, ``whitham``, ``sine-gordon``, ``water-waves``,
``water-waves-deep``, ``boussinesq-whitham``, ``fifth-order-scalar``.
Built-in and custom models alike are built by one constructor per
Hamiltonian structure, ``_scalar_model``, ``_canonical`` or
``_boussinesq_whitham``, from numbers that ``_finite`` has checked.

Errors carry the CLI's exit code in their class: a ``ModelError`` is a
model, parameter or wave that cannot be used (exit 2), and a
``NumericalError`` is a computation that failed on a usable one (exit 3).
Custom models are the only ones written in the expression language:
``model_from_config`` imports ``dsl`` and turns an expression that fails
while the model is built into a ``ModelError``.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "ModelError", "NumericalError",
    "DispersionBranch", "ModelSpec", "TravelingWave",
    "BUILTIN_MODELS", "make_model", "model_from_config",
    "eval_omega", "eval_Omega", "bifurcation_speed",
    "validate_dispersive", "traveling_equation", "hessian", "wave_part",
    "real_matrix", "TruncationWarning",
]

SCALAR = "scalar"
CANONICAL = "canonical"
NONCANONICAL_BW = "noncanonical-bw"

_KINDS = (SCALAR, CANONICAL, NONCANONICAL_BW)


class ModelError(Exception):
    """A model, parameter or wave that cannot be used: exit 2."""


class NumericalError(Exception):
    """A computation that failed on a usable model: exit 3."""


class TruncationWarning(UserWarning):
    pass


# --------------------------------------------------------------------------
# Domain types

Symbol = Callable[["ArrayLike"], "ArrayLike"]


def _symbol(f: Callable[[np.ndarray], np.ndarray]) -> Symbol:
    """Lift ``f``, numpy code for an array of wavenumbers, to the symbol
    contract: a float or an ndarray in, the same shape out, a float for a
    float.  A float runs the same array code, so both give the same bits."""
    def symbol(k):
        k = np.asarray(k, dtype=float)
        out = f(np.atleast_1d(k))
        return out.item() if k.ndim == 0 else out
    return symbol


def _at_zero(f: Callable[[np.ndarray], np.ndarray], value: float) -> Symbol:
    """The symbol equal to ``f``, numpy code for an array of wavenumbers,
    except at k = 0, where it is ``value`` and f is never evaluated."""
    def f_or_value(k):
        out = np.full(k.shape, float(value))
        out[k != 0.0] = f(k[k != 0.0])
        return out
    return _symbol(f_or_value)


@dataclass(frozen=True)
class DispersionBranch:
    """One real branch omega_l(k) of the dispersion relation; ``evaluator``
    is a symbol (see ``ModelSpec``)."""
    index: int
    evaluator: Symbol


@dataclass(frozen=True)
class ModelSpec:
    """A model prepared for the six-step analysis, checked once, when it is
    built: ``validate_dispersive`` runs here and ``mirror`` keeps its map.

    ``kernel_symbol`` is K of ``traveling_equation``: the
    nonlocal kernel omega(k)/k of a scalar model, or the squared phase speed
    c^2(k) of the noncanonical Boussinesq-Whitham structure, where it is
    also the Hessian entry S[0, 0]; canonical models have none.
    ``b_symbol`` and ``c_symbol`` are the canonical Hamiltonian symbols B(k)
    and C(k); canonical models have no advection term, A(k) = 0.  Symbols
    are closed-form functions of k, never truncated coefficient lists, so
    models with infinitely many Hamiltonian coefficients stay exact.

    Every symbol, the branch evaluators included, is an array function: it
    takes a float or an ndarray of wavenumbers and returns the same shape,
    a float for a float.  A removable singularity at k = 0 takes its limit
    there from ``_at_zero``, which never evaluates the symbol at k = 0.
    """
    name: str
    kind: str
    branches: tuple[DispersionBranch, ...]
    params: dict = field(default_factory=dict)
    kernel_symbol: Symbol | None = None
    b_symbol: Symbol | None = None
    c_symbol: Symbol | None = None
    sigma: float = 0.0   # scalar nonlinearity sigma * u^power * u_x
    power: int = 1
    alpha: float = 0.0   # BW quadratic term alpha * q^2
    mirror: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        want = 1 if self.kind == SCALAR else 2
        if len(self.branches) != want:
            raise ModelError(
                f"{self.kind} model must have {want} branch(es), "
                f"got {len(self.branches)}")
        object.__setattr__(self, "mirror", validate_dispersive(self))

    def branch(self, l: int) -> DispersionBranch:
        for b in self.branches:
            if b.index == l:
                return b
        raise ModelError(f"model {self.name!r} has no branch {l}")


@dataclass
class TravelingWave:
    """A 2*pi-periodic even traveling wave stored as a cosine series.

    ``coefficients[m]`` multiplies cos(m x); ``amplitude`` is the first
    cosine coefficient, the continuation parameter.  ``constant`` is the
    integration constant of the traveling equation (B for scalar models,
    A for the two-component Boussinesq-Whitham form).
    """
    model: str
    c: float
    coefficients: Sequence[float]
    constant: float = 0.0

    @property
    def amplitude(self) -> float:
        return float(self.coefficients[1]) if len(self.coefficients) > 1 else 0.0

    @property
    def is_zero(self) -> bool:
        """True when every cosine coefficient vanishes (the trivial wave)."""
        return not any(self.coefficients)

    def profile(self, x) -> object:
        """Evaluate the wave at x (scalar or numpy array)."""
        x = np.asarray(x, dtype=float)
        u = np.full_like(x, float(self.coefficients[0]))
        for m in range(1, len(self.coefficients)):
            u += self.coefficients[m] * np.cos(m * x)
        return u

    def to_dict(self) -> dict:
        return {"model": self.model, "c": self.c,
                "coefficients": [float(a) for a in self.coefficients],
                "amplitude": self.amplitude, "constant": self.constant}

    @staticmethod
    def from_dict(data: Mapping) -> "TravelingWave":
        if not isinstance(data, Mapping):
            raise ModelError(f"a wave must be an object, got {data!r}")
        coefficients = data["coefficients"]
        if not isinstance(coefficients, (list, tuple, np.ndarray)):
            raise ModelError(f"wave coefficients must be a list of numbers, "
                             f"got {coefficients!r}")
        return TravelingWave(
            model=data["model"], c=_finite("wave c", data["c"]),
            coefficients=[_finite("wave coefficients", a)
                          for a in coefficients],
            constant=_finite("wave constant", data.get("constant", 0.0)))


def _finite(label: str, v) -> float:
    """``v`` as a float, or a ModelError naming it by ``label`` (such as
    ``parameter 'sigma'``): every number a model or wave is built from."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ModelError(f"{label} must be a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:   # an int compares without overflow
        raise ModelError(f"{label} must be finite, got {v!r}")
    return float(v)


def _params(params) -> dict:
    """``params``, which must be a mapping (a JSON object), with each value
    checked by ``_finite``."""
    if not isinstance(params, Mapping):
        raise ModelError(f"model parameters must be an object, got {params!r}")
    return {name: _finite(f"parameter {name!r}", v)
            for name, v in params.items()}


# --------------------------------------------------------------------------
# Operations

def eval_omega(model: ModelSpec, l: int, k: ArrayLike) -> ArrayLike:
    """Evaluate the branch-l dispersion relation at wavenumber(s) k."""
    w = model.branch(l).evaluator(k)
    bad = ~np.isfinite(w)
    if bad.any():
        k_bad = float(np.broadcast_to(k, np.shape(w))[bad][0])
        raise ModelError(
            f"model {model.name!r}: omega_{l}({k_bad!r}) is not finite")
    return w


def eval_Omega(model: ModelSpec, l: int, k: ArrayLike, c: float) -> ArrayLike:
    """Dispersion relation in the frame traveling at speed c."""
    return eval_omega(model, l, k) - c * k


def bifurcation_speed(model: ModelSpec, l: int, N: int) -> float:
    """Speed at which the branch-l, harmonic-N bifurcation starts: omega_l(N)/N."""
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return eval_omega(model, l, N) / N


_DISPERSIVE_GRID = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.5, 5.0, 10.0, 25.0])
_DISPERSIVE_TOL = 1e-10


def validate_dispersive(model: ModelSpec) -> dict[int, int]:
    """Check the branch set on a sample grid and return its mirror map.

    Every branch l needs a mirror l' with omega_l'(-k) = -omega_l(k): the
    branch set is closed under the reflection k -> -k, which is what makes
    the spectrum at -mu the negated spectrum at mu.  Odd branches mirror
    onto themselves; a pair +-omega_1 with omega_1 even swaps.  Returns
    {l: l'}; raises ModelError when a branch returns a
    non-finite value or has no mirror.  A scalar model's one branch must
    therefore be odd, and a Boussinesq-Whitham c^2(k) even.  A branch that
    fails to evaluate raises its own error (see ``model_from_config``).
    """
    ks = _DISPERSIVE_GRID
    with np.errstate(invalid="ignore"):   # a non-finite value raises here
        w = {b.index: eval_omega(model, b.index, np.stack([ks, -ks]))
             for b in model.branches}
    pair = {}
    for l in w:
        gaps = {lp: np.abs(w[lp][1] + w[l][0]) for lp in w}
        pair[l] = min(gaps, key=lambda lp: gaps[lp].max())   # first wins
        v = gaps[pair[l]]
        if (v > _DISPERSIVE_TOL).any():
            i = np.argmax(v)
            raise ModelError(
                f"model {model.name!r}: no branch mirrors branch {l} "
                f"under k -> -k: |omega_l'(-k) + omega_{l}(k)| = "
                f"{v[i]:g} at k = {ks[i]:g}")
    return pair


# --------------------------------------------------------------------------
# The traveling equation

class _Equation(NamedTuple):
    """K*U - s(c) U + N(U) = r, with ``TravelingWave.constant`` = sign * r;
    ds and dN are the derivatives of s and N, and q is the U^2 coefficient
    of N (None when N is not quadratic)."""
    kernel: Callable
    s: Callable
    ds: Callable
    N: Callable
    dN: Callable
    q: float | None
    sign: float


def traveling_equation(model: ModelSpec) -> _Equation:
    """The traveling equation of a scalar or Boussinesq-Whitham model.

    K has the symbol ``kernel_symbol``.  Scalar models have s = c,
    N = sigma U^(p+1)/(p+1) and r = B; the Boussinesq-Whitham form
    c^2 Q = alpha Q^2 + K*Q + A, negated, has s = c^2, N = alpha Q^2 and
    r = -A.  Canonical models have none (ModelError).
    """
    if model.kind == SCALAR:
        sigma, p = model.sigma, model.power
        return _Equation(kernel=model.kernel_symbol, s=lambda c: c,
                         ds=lambda c: 1.0,
                         N=lambda u: sigma * u ** (p + 1) / (p + 1),
                         dN=lambda u: sigma * u ** p,
                         q=sigma / 2.0 if p == 1 else None, sign=1.0)
    if model.kind == NONCANONICAL_BW:
        alpha = model.alpha
        return _Equation(kernel=model.kernel_symbol, s=lambda c: c * c,
                         ds=lambda c: 2.0 * c, N=lambda u: alpha * u * u,
                         dN=lambda u: 2.0 * alpha * u, q=alpha, sign=-1.0)
    raise ModelError(
        f"traveling-wave construction needs the kernel symbol of a scalar "
        f"or noncanonical-bw model; {model.name!r} ({model.kind}) has none")


# --------------------------------------------------------------------------
# The linearised operator L = J·S

def hessian(model: ModelSpec, k: ArrayLike, c: float) -> np.ndarray:
    """The real symmetric Hessian S_R(k) of the frame moving at speed c, with
    shape (..., d, d) for wavenumbers k of shape (...) and d components (see
    ``real_matrix``).  A scalar model's S_R = -Omega/k has no value at
    k = 0 (ZeroDivisionError)."""
    k = np.asarray(k, dtype=float)
    if model.kind == SCALAR:
        if (k == 0.0).any():
            raise ZeroDivisionError("S(k) = -Omega(k)/k at k = 0")
        return (-eval_Omega(model, 1, k, c) / k)[..., None, None]
    S = np.empty(k.shape + (2, 2))
    if model.kind == CANONICAL:
        S[..., 0, 0], S[..., 1, 1] = model.c_symbol(k), model.b_symbol(k)
        S[..., 0, 1] = S[..., 1, 0] = c * k
    else:
        S[..., 0, 0], S[..., 1, 1] = model.kernel_symbol(k), 1.0
        S[..., 0, 1] = S[..., 1, 0] = c
    return S


def wave_part(model: ModelSpec, wave: TravelingWave,
              M: int) -> np.ndarray | None:
    """Fourier matrix of the wave's term in S[0, 0] on the modes |n| <= M.

    The term is multiplication by f = -sign * N'(U), from the model's
    traveling equation; its matrix W[n, m] = f_hat(n - m) does not
    depend on the Floquet exponent.  None for the zero wave.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    a = np.asarray(wave.coefficients, dtype=float)
    tail = a[2 * M + 1:]
    if tail.size and np.max(np.abs(tail)) > 1e-12:
        warnings.warn(
            f"wave coefficients do not decay below 1e-12 within the "
            f"truncation (M={M}); spectra may be under-resolved",
            TruncationWarning, stacklevel=3)
    if wave.is_zero:
        return None
    eq = traveling_equation(model)
    if eq.q is not None:   # N'(U) = 2q U
        dN = 2.0 * eq.q * _exp_coeffs(a, 2 * M)
    else:   # N'(U) sampled on a grid that resolves shifts up to 2M
        ngrid = max(8 * M, 4 * (a.size - 1), 64)
        x = 2.0 * math.pi * np.arange(ngrid) / ngrid
        dN = _exp_coeffs(_cosine_coeffs(eq.dN(wave.profile(x)), 2 * M),
                         2 * M)
    return -eq.sign * _toeplitz(dN, M)


def real_matrix(model: ModelSpec, ks: np.ndarray, c: float,
                W: np.ndarray | None = None) -> np.ndarray:
    """The problem linearised about a wave of speed c, u_t = L u with
    L = J·(S + W), in one real form R on the modes ks.

    J is the Poisson symbol and S the Hessian symbol of the Hamiltonian in
    the frame moving at speed c, d x d for a model with d = len(branches)
    components.  S_R = P†SP is real symmetric (``hessian``) and
    J·S = i·P R P^-1 with the real R = j(k)·S_R (rows swapped for d = 2),
    for the diagonal similarity P = diag(1, i) (canonical) or 1 and a
    scalar Poisson factor j(k):

    ===============  ===================  =====  =====================
    kind             J(k)                 j(k)   S_R(k)
    ===============  ===================  =====  =====================
    scalar           ik                   k      -Omega(k)/k
    canonical        [[0, 1], [-1, 0]]    1      [[C, ck], [ck, B]]
    noncanonical-bw  ik [[0, 1], [1, 0]]  k      [[c^2(k), c], [c, 1]]
    ===============  ===================  =====  =====================

    R(k) has the eigenvalues rho = -Omega_l(k), and the sign of wᵀS_R(k)w on
    a real eigenvector w is the mode's Krein signature.  A finite-amplitude
    wave adds its multiplication matrix W (``wave_part``) to S_R[0, 0]; L's
    eigenvalues are then i*rho for R's rho.

    ks has shape (..., N), one row of modes per matrix, and R has shape
    (..., d·N, d·N), ordered component by component: a stack of mu slices
    is built at once.
    """
    ks = np.asarray(ks, dtype=float)
    n = ks.shape[-1]
    i = np.arange(n)
    if model.kind == SCALAR and W is not None:
        # built in k*W: the diagonal -Omega + k*W_ii takes k*W_ii before the
        # + 0.0 that keeps the zeros off it +0, as eigvals needs
        R = ks[..., :, None] * W
        diag = -eval_Omega(model, 1, ks, c) + R[..., i, i]
        R += 0.0
        R[..., i, i] = diag
        return R
    R = np.zeros(ks.shape[:-1] + (len(model.branches) * n,) * 2)
    if model.kind == SCALAR:
        # k*(-Omega/k) = -Omega: the k cancels exactly, also at k = 0
        R[..., i, i] = -eval_Omega(model, 1, ks, c)
        return R
    S = hessian(model, ks, c)
    j = ks if model.kind == NONCANONICAL_BW else np.ones_like(ks)
    # R = j·swap_rows(S_R + W e00), j applied to the diagonals and the
    # dense block only: off-diagonal zeros stay +0, as eigvals needs
    lower = R[..., n:, :n]
    lower[..., i, i] = S[..., 0, 0]
    if W is not None:
        lower += W
    lower *= j[..., :, None]
    R[..., i, i] = j * S[..., 1, 0]
    R[..., i, n + i] = j * S[..., 1, 1]
    R[..., n + i, n + i] = j * S[..., 0, 1]
    return R


def _cosine_coeffs(values: np.ndarray, M: int) -> np.ndarray:
    """First M+1 cosine coefficients of even grid samples along the last
    axis (length >= 2M+2)."""
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    out = np.empty(values.shape[:-1] + (M + 1,))
    out[..., 0] = spec[..., 0].real / n
    out[..., 1:] = 2.0 * spec[..., 1:M + 1].real / n
    return out


def _exp_coeffs(a: np.ndarray, length: int) -> np.ndarray:
    """Exponential Fourier coefficients u_hat(-length..length) of the
    cosine series with coefficients a."""
    out = np.zeros(2 * length + 1)
    out[length] = a[0]
    top = min(length, a.size - 1)
    out[length + 1:length + 1 + top] = a[1:top + 1] / 2.0
    out[length - top:length] = a[top:0:-1] / 2.0
    return out


def _toeplitz(col_row: np.ndarray, M: int) -> np.ndarray:
    """T[n, m] = col_row[center + (n - m)] for n, m = -M..M."""
    center = (col_row.size - 1) // 2
    idx = np.arange(2 * M + 1)
    return col_row[center + idx[:, None] - idx[None, :]]


# --------------------------------------------------------------------------
# The constructors, one per Hamiltonian structure

def _scalar_model(name, params, omega, kernel, sigma, power=1):
    return ModelSpec(
        name=name, kind=SCALAR,
        branches=(DispersionBranch(1, omega),),
        params=params, kernel_symbol=kernel, sigma=sigma, power=power)


def _pair(omega1: Symbol) -> tuple[DispersionBranch, DispersionBranch]:
    """The branches +-omega1 of a two-component model."""
    return (DispersionBranch(1, omega1),
            DispersionBranch(2, lambda k: -omega1(k)))


def _canonical(name, params, omega1, b_symbol, c_symbol):
    return ModelSpec(name=name, kind=CANONICAL, branches=_pair(omega1),
                     params=params, b_symbol=b_symbol, c_symbol=c_symbol)


def _boussinesq_whitham(name, params, omega1, c2, alpha):
    return ModelSpec(name=name, kind=NONCANONICAL_BW, branches=_pair(omega1),
                     params=params, kernel_symbol=c2, alpha=alpha)


# --------------------------------------------------------------------------
# Built-in models

def _merged(defaults: dict, params: Mapping[str, float] | None,
            positive: tuple[str, ...] = ()) -> dict:
    """``defaults`` updated by the checked ``params``, the ``positive`` ones
    > 0; a default of None is derived from the others by the model."""
    out = _params(params or {})
    unknown = set(out) - set(defaults)
    if unknown:
        raise ModelError(f"unknown parameter(s): {sorted(unknown)}")
    out = {**defaults, **out}
    for name in positive:
        if not out[name] > 0:
            raise ModelError(f"parameter {name!r} must be finite and > 0, "
                             f"got {out[name]!r}")
    return out


def _make_gkdv(params=None, *, name="gkdv", sigma_default=1.0, power=1):
    p = _merged({"sigma": sigma_default}, params)
    return _scalar_model(name, p, _symbol(lambda k: -k ** 3),
                         _symbol(lambda k: -k ** 2), p["sigma"], power)


def _ww_omega1(g: float, h: float) -> Symbol:
    # sign(0) = 0 removes the k = 0 singularity of sign(k)*sqrt(...)
    return _symbol(lambda k: np.sign(k) * np.sqrt(g * k * np.tanh(k * h)))


def _ww_c2(g: float, h: float) -> Symbol:
    """c^2(k) = g tanh(kh)/k, with its limit g*h at k = 0."""
    return _at_zero(lambda k: g * np.tanh(k * h) / k, g * h)


def _make_whitham(params=None):
    p = _merged({"g": 1.0, "h": 1.0, "sigma": None}, params, ("g", "h"))
    g, h = p["g"], p["h"]
    if p["sigma"] is None:   # the shallow-water quadratic term's scaling
        p["sigma"] = 1.5 * math.sqrt(g / h)
    c2 = _ww_c2(g, h)
    kernel = _symbol(lambda k: np.sqrt(c2(k)))
    return _scalar_model("whitham", p, _ww_omega1(g, h), kernel, p["sigma"])


def _make_fifth_order(params=None):
    p = _merged({"alpha": 1.0, "beta": 0.25, "sigma": 1.0}, params)
    a, b = p["alpha"], p["beta"]
    omega = _symbol(lambda k: a * k ** 3 - b * k ** 5)
    kernel = _symbol(lambda k: a * k ** 2 - b * k ** 4)
    return _scalar_model("fifth-order-scalar", p, omega, kernel, p["sigma"])


def _constant(value: float) -> Symbol:
    return _symbol(lambda k: np.full(k.shape, value))


def _make_sine_gordon(params=None):
    p = _merged({}, params)
    omega1 = _symbol(lambda k: np.sqrt(1.0 + k * k))
    return _canonical("sine-gordon", p, omega1,
                      b_symbol=_constant(1.0),
                      c_symbol=_symbol(lambda k: 1.0 + k * k))


def _make_water_waves(params=None):
    p = _merged({"g": 1.0, "h": 1.0}, params, ("g", "h"))
    g, h = p["g"], p["h"]
    return _canonical("water-waves", p, _ww_omega1(g, h),
                      b_symbol=_symbol(lambda k: k * np.tanh(k * h)),
                      c_symbol=_constant(g))


def _make_water_waves_deep(params=None):
    p = _merged({"g": 1.0}, params, ("g",))
    g = p["g"]
    omega1 = _symbol(lambda k: np.sign(k) * np.sqrt(g * np.abs(k)))
    return _canonical("water-waves-deep", p, omega1,
                      b_symbol=_symbol(np.abs),
                      c_symbol=_constant(g))


def _make_boussinesq_whitham(params=None):
    p = _merged({"g": 1.0, "h": 1.0, "alpha": 1.0}, params, ("g", "h"))
    g, h = p["g"], p["h"]
    return _boussinesq_whitham("boussinesq-whitham", p, _ww_omega1(g, h),
                               _ww_c2(g, h), p["alpha"])


BUILTIN_MODELS: dict[str, Callable] = {
    "gkdv": _make_gkdv,
    "kdv": functools.partial(_make_gkdv, name="kdv"),
    "mkdv-focusing": functools.partial(
        _make_gkdv, name="mkdv-focusing", sigma_default=3.0, power=2),
    "mkdv-defocusing": functools.partial(
        _make_gkdv, name="mkdv-defocusing", sigma_default=-3.0, power=2),
    "whitham": _make_whitham,
    "sine-gordon": _make_sine_gordon,
    "water-waves": _make_water_waves,
    "water-waves-deep": _make_water_waves_deep,
    "boussinesq-whitham": _make_boussinesq_whitham,
    "fifth-order-scalar": _make_fifth_order,
}


def make_model(name: str, params: Mapping[str, float] | None = None) -> ModelSpec:
    """Instantiate a built-in model by identifier."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise ModelError(
            f"unknown model {name!r}; known: {sorted(BUILTIN_MODELS)}") from None
    return factory(params)


# --------------------------------------------------------------------------
# Custom models from DSL expressions

_CUSTOM_KEYS = {"kind", "omega1", "omega2", "c_squared", "params", "at_zero"}
_CUSTOM_NAMES = {SCALAR: "custom-scalar", CANONICAL: "custom-canonical",
                 NONCANONICAL_BW: "custom-bw"}
_PROBES = np.array([0.3, 1.0, 2.7, 5.0])   # wavenumbers of the checks below


def _require_match(a: np.ndarray, b: np.ndarray, requirement: str) -> None:
    """ModelError naming ``requirement`` unless the values a = b to 1e-10."""
    gap = np.abs(a - b)
    if not (gap <= 1e-10).all():
        raise ModelError(f"{requirement} (largest gap {gap.max():g})")


def model_from_config(spec: Mapping,
                      params: Mapping[str, float] | None = None) -> ModelSpec:
    """Build a ModelSpec from an inline custom model description.

    Keys: ``kind`` (scalar | canonical | noncanonical-bw), ``omega1``,
    optional ``omega2`` (canonical; must equal -omega1), ``c_squared`` (BW;
    omega1 must equal k*sqrt(c_squared)), ``params`` mapping, and
    ``at_zero``, the k = 0 value of a scalar kernel omega1(k)/k (default 0)
    or of a BW c_squared (canonical models refuse it).  Canonical models
    built this way have the Hamiltonian B(k) = 1, C(k) = omega1(k)^2, whose
    only branches are +-omega1.  ``params``, if given, update the spec's
    own.  Parameters must be a mapping, and each of them and ``at_zero`` a
    finite number.

    Only custom models load ``dsl``.  An expression that fails while the
    model is built (a ``dsl.EvalError``) is a ModelError naming the model;
    one that fails later is a numerical failure.
    """
    unknown = set(spec) - _CUSTOM_KEYS
    if unknown:
        raise ModelError(f"unknown custom-model key(s): {sorted(unknown)}")
    for key in ("omega1", "omega2", "c_squared"):
        if not isinstance(spec.get(key, ""), str):
            raise ModelError(f"custom model {key!r} must be an expression "
                             f"string, got {spec[key]!r}")
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ModelError(f"custom model kind must be one of {_KINDS}, got {kind!r}")
    if "omega1" not in spec:
        raise ModelError("custom model requires 'omega1'")
    params = {**_params(spec.get("params", {})), **_params(params or {})}
    at_zero = spec.get("at_zero")
    if at_zero is not None:
        at_zero = _finite("custom model 'at_zero'", at_zero)
    from . import dsl
    name = _CUSTOM_NAMES[kind]
    try:
        omega1 = dsl.compile_symbol(spec["omega1"], params)
        if kind == SCALAR:
            kernel = _at_zero(lambda k: omega1(k) / k,
                              0.0 if at_zero is None else at_zero)
            return _scalar_model(name, params, omega1, kernel,
                                 params.get("sigma", 1.0))
        if kind == CANONICAL:
            if "at_zero" in spec:
                raise ModelError("custom canonical symbols are regular at "
                                 "k = 0: drop 'at_zero'")
            if "omega2" in spec:
                _require_match(
                    dsl.compile_symbol(spec["omega2"], params)(_PROBES),
                    -omega1(_PROBES),
                    "custom canonical models have B(k) = 1 and C(k) = "
                    "omega1(k)^2, whose branches are +-omega1: 'omega2' "
                    "must equal -omega1")
            return _canonical(name, params, omega1,
                              b_symbol=_constant(1.0),
                              c_symbol=_symbol(lambda k: omega1(k) ** 2))
        if "c_squared" not in spec:
            raise ModelError("noncanonical-bw custom model requires "
                             "'c_squared'")
        c2 = dsl.compile_symbol(spec["c_squared"], params)
        if at_zero is not None:
            c2 = _at_zero(c2, at_zero)
        w1, c2_probes = omega1(_PROBES), c2(_PROBES)
        negative = c2_probes < 0.0
        if negative.any():
            raise ModelError(
                f"custom noncanonical-bw 'c_squared' is negative at "
                f"k={float(_PROBES[negative][0])!r}, so its branches "
                f"+-k*sqrt(c_squared(k)) are not real")
        _require_match(w1, _PROBES * np.sqrt(c2_probes),
                       "custom noncanonical-bw models have the branches "
                       "+-k*sqrt(c_squared(k)): 'omega1' must equal "
                       "k*sqrt(c_squared)")
        return _boussinesq_whitham(
            name, params, _symbol(lambda k: k * np.sqrt(c2(k))), c2,
            params.get("alpha", 1.0))
    except dsl.EvalError as exc:
        raise ModelError(f"model {name!r}: {exc}") from exc

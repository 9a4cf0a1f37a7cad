"""Independent closed-form reference for the benchmark's correctness checks.

Nothing here imports ``hfstab``: the dispersion relations are written out
again with numpy, collisions are found by a vectorised sign-change scan
plus bisection, and Krein signatures use the closed-form products (the
scalar ``Omega(k1)Omega(k2)/(k1 k2)``, the even-canonical ``w1 w2 B(k1)
B(k2)`` and the Boussinesq-Whitham ``2w(w - kV)``).  The program's events
are checked against these roots; the program is never its own reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCALAR, CANONICAL, BW = "scalar", "canonical", "bw"
BORDERLINE_TOL = 1e-12   # |signature product| below this decides nothing
LAMBDA_TOL = 1e-8        # |lambda| below this is an origin collision


def _ww(g, h):
    return lambda k: np.sign(k) * np.sqrt(g * k * np.tanh(k * h))


@dataclass(frozen=True)
class Dispersion:
    """Branches omega_l(k) as array functions, plus the signature weight."""
    kind: str
    omega1: object
    weight: object = None   # B(k) for canonical models

    def omega(self, l, k):
        w = self.omega1(k)
        return w if l == 1 else -w

    @property
    def branches(self):
        return (1,) if self.kind == SCALAR else (1, 2)

    def speed(self, N: int = 1) -> float:
        return float(self.omega1(np.float64(N))) / N


def dispersion(model: str, params: dict | None = None) -> Dispersion:
    """The dispersion data of a built-in model id (custom DSL twins share it)."""
    p = dict(params or {})
    g, h = p.get("g", 1.0), p.get("h", 1.0)
    if model == "fifth-order-scalar":
        a, b = p.get("alpha", 1.0), p.get("beta", 0.25)
        return Dispersion(SCALAR, lambda k: a * k ** 3 - b * k ** 5)
    if model == "water-waves":
        return Dispersion(CANONICAL, _ww(g, h), lambda k: k * np.tanh(k * h))
    if model == "water-waves-deep":
        return Dispersion(CANONICAL,
                          lambda k: np.sign(k) * np.sqrt(g * np.abs(k)),
                          np.abs)
    if model == "sine-gordon":
        return Dispersion(CANONICAL, lambda k: np.sqrt(1.0 + k * k),
                          np.ones_like)
    if model == "boussinesq-whitham":
        return Dispersion(BW, _ww(g, h))
    raise ValueError(f"no reference dispersion for model {model!r}")


def _tuples(branches, n_max: int) -> np.ndarray:
    rows = []
    ns = range(-n_max, n_max + 1)
    for n1 in ns:
        for n2 in ns:
            if n1 > n2:
                rows.extend((n1, l1, n2, l2) for l1 in branches
                            for l2 in branches)
            elif n1 == n2 and len(branches) == 2:
                rows.append((n1, 1, n2, 2))
    return np.array(rows, dtype=float).reshape(-1, 4)


def collisions(disp: Dispersion, c: float, n_max: int, grid_points: int = 1024,
               tol: float = 1e-13) -> np.ndarray:
    """All sign-change roots as rows (n1, l1, n2, l2, mu, Im lambda).

    mu is renormalised into (-1/2, 1/2] and only Im lambda >= 0
    representatives are kept.  Candidates the program may discard by its
    residual test are kept too: the check only needs every program event
    to be one of these rows.
    """
    def Om(l, k):
        return np.where(l == 1, disp.omega(1, k), disp.omega(2, k)) - c * k

    t = _tuples(disp.branches, n_max)
    mus = -0.5 + np.arange(grid_points + 1) / grid_points
    ks = np.arange(-n_max, n_max + 1)[:, None] + mus
    table = np.stack([disp.omega(l, ks) - c * ks for l in (1, 2)])
    row = lambda l, n: table[l.astype(int) - 1, n.astype(int) + n_max]
    f = row(t[:, 1], t[:, 0]) - row(t[:, 3], t[:, 2])
    ti, gi = np.nonzero(f[:, :-1] * f[:, 1:] < 0.0)
    zi, zg = np.nonzero(f == 0.0)

    a, b, fa = mus[gi], mus[gi + 1], f[ti, gi]
    T = t[ti]
    resid = lambda mu: (Om(T[:, 1], T[:, 0] + mu)
                        - Om(T[:, 3], T[:, 2] + mu))
    while np.any(b - a > tol):
        m = 0.5 * (a + b)
        fm = resid(m)
        left = (fa < 0.0) != (fm < 0.0)
        b = np.where(left, m, b)
        a = np.where(left, a, m)
        fa = np.where(left, fa, fm)
    roots = np.concatenate([0.5 * (a + b), mus[zg]])
    T = np.concatenate([T, t[zi]])

    shift = roots <= -0.5 + 1e-15
    roots = np.where(shift, roots + 1.0, roots)
    T[shift, 0] -= 1
    T[shift, 2] -= 1
    im = -Om(T[:, 1], T[:, 0] + roots)
    keep = im >= -LAMBDA_TOL
    return np.column_stack([T, roots, im])[keep]


def signature_product(disp: Dispersion, c: float, n1, l1, n2, l2,
                      mu) -> float:
    """Closed-form product of the two colliding modes' Krein signatures."""
    k1, k2 = n1 + mu, n2 + mu
    w1, w2 = disp.omega(l1, k1), disp.omega(l2, k2)
    if disp.kind == SCALAR:
        return float((w1 - c * k1) * (w2 - c * k2) / (k1 * k2))
    if disp.kind == CANONICAL:
        return float(w1 * w2 * disp.weight(k1) * disp.weight(k2))
    return float(4.0 * w1 * (w1 - k1 * c) * w2 * (w2 - k2 * c))


def verdict(disp: Dispersion, c: float, n1, l1, n2, l2, mu,
            at_origin: bool) -> str:
    if at_origin:
        return "indeterminate-origin"
    p = signature_product(disp, c, n1, l1, n2, l2, mu)
    if p < -BORDERLINE_TOL:
        return "potential-instability"
    if p > BORDERLINE_TOL:
        return "no-instability-possible"
    return "indeterminate-origin"


def opposite_ordinates(disp: Dispersion, c: float, n_max: int) -> list[float]:
    """Im lambda of every non-origin opposite-signature collision."""
    out = []
    for n1, l1, n2, l2, mu, im in collisions(disp, c, n_max):
        if abs(im) >= LAMBDA_TOL and verdict(
                disp, c, n1, l1, n2, l2, mu, False) == "potential-instability":
            out.append(float(im))
    return sorted(set(round(x, 12) for x in out))


def window_count(disp: Dispersion, c: float, n_max: int) -> int:
    """Distinct mirrored mu of non-origin collisions: the refinement windows."""
    mus = set()
    for *_, mu, im in collisions(disp, c, n_max):
        if abs(im) >= LAMBDA_TOL:
            mirror = -mu if -mu > -0.5 else -mu + 1.0
            mus.update((round(mu, 9), round(mirror, 9)))
    return len(mus)

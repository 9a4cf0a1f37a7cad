"""Eigenvalue collision detection for zero-amplitude spectra.

Two zero-amplitude eigenvalues within the same Floquet class collide when
Omega_{l1}(n1 + mu) = Omega_{l2}(n2 + mu).  This module scans the mode
tuples up to |n| <= n_max, brackets sign changes of the residual over a
uniform mu grid, and refines roots by bisection.  Roots are bracketed
rather than found by derivative methods because dispersion relations may
be supplied through the expression DSL, which has no derivatives.

The scan works on arrays: each branch is evaluated on the (n, mu) grid a
block of rows at a time, the residual rows of the scanned tuples are
formed a block at a time, and all brackets are bisected together.  A tuple
whose two Omega rows have disjoint ranges over the grid is skipped, which
is exact: the rows are finite (``eval_omega`` refuses other values), and
the difference of two distinct finite doubles is nonzero with the sign of
their comparison, so its residual has one strict sign at every grid point
and neither a grid zero nor a sign change.

Tangential (even-multiplicity) roots without a sign change are missed by
bracketing; the grid-refinement stability test mitigates this.

An event's verdict follows from its Krein signature product p (set by
``krein.screen``): p < 0 may destabilize, p > 0 cannot, and the origin, an
unsigned event or |p| <= BORDERLINE_TOL decides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .models import (ModelSpec, NumericalError, eval_Omega,
                     bifurcation_speed, make_model)

__all__ = [
    "CollisionEvent",
    "collision_residual", "find_collisions", "mirror_events",
    "secant_curve_data", "trace_first_collision_vs_depth",
    "VERDICT_NONE", "VERDICT_POTENTIAL", "VERDICT_INDETERMINATE",
    "BORDERLINE_TOL", "GRID_POINTS", "RESIDUAL_TOL", "LAMBDA_TOL",
    "BISECT_TOL",
]

VERDICT_NONE = "no-instability-possible"
VERDICT_POTENTIAL = "potential-instability"
VERDICT_INDETERMINATE = "indeterminate-origin"

# signature products with magnitude below this draw no conclusion
BORDERLINE_TOL = 1e-12

GRID_POINTS = 1024      # intervals of the uniform mu grid of the scan
RESIDUAL_TOL = 1e-9     # |residual| above this at a root is no collision
LAMBDA_TOL = 1e-8       # |lambda| below this counts as an origin collision
BISECT_TOL = 1e-13      # mu interval width at which bisection stops

# Grid elements per block of the scan: bounds the size of every array it
# makes, the blocks of the grid of Omega values included.
_BLOCK = 8192


@dataclass
class CollisionEvent:
    """One solved collision: modes, Floquet exponent, shared eigenvalue.
    ``signature_product`` is set by ``krein.screen`` and ``verdict``
    follows from it (see the module docstring)."""
    n1: int
    l1: int
    n2: int
    l2: int
    mu: float
    lam: complex
    at_origin: bool
    signature_product: float | None = None

    @property
    def verdict(self) -> str:
        p = self.signature_product
        if self.at_origin or p is None or abs(p) <= BORDERLINE_TOL:
            return VERDICT_INDETERMINATE
        return VERDICT_POTENTIAL if p < 0 else VERDICT_NONE

    def to_dict(self) -> dict:
        return {
            "n1": self.n1, "l1": self.l1, "n2": self.n2, "l2": self.l2,
            "mu": self.mu,
            "lambda_im": self.lam.imag + 0.0,   # + 0.0 turns -0 into +0
            "at_origin": self.at_origin,
            "signature_product": self.signature_product,
            "verdict": self.verdict,
        }


def collision_residual(model: ModelSpec, n1, l1, n2, l2, mu, c: float):
    """Omega_{l1}(n1 + mu) - Omega_{l2}(n2 + mu); a root in mu is a collision.
    Modes and mu may also be arrays, one tuple per element of their
    broadcast shape: then both sides are evaluated together, in one call
    per branch."""
    if np.any((np.asarray(n1) == n2) & (np.asarray(l1) == l2)):
        raise ValueError("collision requires two distinct modes")
    if np.ndim(l1) == np.ndim(l2) == 0:
        return _Omega(model, c, l1, n1 + mu) - _Omega(model, c, l2, n2 + mu)
    k1, k2, l1, l2 = np.broadcast_arrays(n1 + mu, n2 + mu, l1, l2)
    w = _Omega(model, c, np.stack([l1, l2]), np.stack([k1, k2]))
    return w[0] - w[1]


def _Omega(model: ModelSpec, c: float, l, k):
    """Omega_l(k) for a branch l per element: one array call per branch."""
    if np.ndim(l) == 0:
        return eval_Omega(model, int(l), k, c)
    on = [l == b.index for b in model.branches]
    if sum(map(np.count_nonzero, on)) < np.size(l):
        model.branch(int(l[~np.logical_or.reduce(on)][0]))   # raises
    out = np.empty(np.shape(k))
    for b, m in zip(model.branches, on):
        out[m] = eval_Omega(model, b.index, k[m], c)
    return out


def find_collisions(model: ModelSpec, c: float,
                    n_max: int) -> list[CollisionEvent]:
    """Locate all two-mode collisions for |n| <= n_max.

    Output is deduplicated by (lambda, mu) rounded to 1e-9, keeps only
    Im(lambda) >= 0 representatives (mirror events are reconstructible via
    :func:`mirror_events`), and is sorted by (Im lambda, mu, n1).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    G = GRID_POINTS
    # grid over [-1/2, 1/2]; the -1/2 endpoint is equivalent to +1/2 and
    # roots found exactly there are renormalized below
    mus = -0.5 + np.arange(G + 1) / G
    ls = np.array([b.index for b in model.branches])
    ns = np.arange(-n_max, n_max + 1)
    rows = max(1, _BLOCK // (G + 1))
    # Omega_l(n + mu) per branch, evaluated in blocks of ``rows`` n (small
    # arrays reuse freed heap, where one grid of them all would be a fresh
    # mapping) and kept as one list of row views: row r is branch position
    # and mode index divmod(r, ns.size)
    blocks = [eval_Omega(model, int(l), ns[lo:lo + rows, None] + mus, c)
              for l in ls for lo in range(0, ns.size, rows)]
    Om = [r for b in blocks for r in b]
    p, i = np.divmod(np.arange(len(Om)), ns.size)

    # Mode tuples, rows (a, b): i_a > i_b for every branch pair, i_a == i_b
    # for p_a < p_b.  A tuple whose rows have disjoint ranges is skipped:
    # its residual has one strict sign on the whole grid.  A grid zero
    # (kind 0) or sign change (kind 1) is kept as (a, b, kind, grid index).
    lo = np.concatenate([b.min(axis=1) for b in blocks])
    hi = np.concatenate([b.max(axis=1) for b in blocks])
    ra, rb = np.nonzero(~((hi[:, None] < lo) | (hi < lo[:, None]))
                        & ((i[:, None] > i) | (i[:, None] == i)
                           & (p[:, None] < p)))
    hits = [np.empty((4, 0), dtype=int)]
    for s in range(0, ra.size, rows):
        a, b = ra[s:s + rows], rb[s:s + rows]
        f = (np.array([Om[r] for r in a.tolist()])
             - np.array([Om[r] for r in b.tolist()]))
        for kind, mask in enumerate((f == 0.0, f[:, :-1] * f[:, 1:] < 0.0)):
            t, g = np.divmod(np.flatnonzero(mask), mask.shape[1])
            hits.append(np.array([a[t], b[t], np.full(t.size, kind), g]))
    # scan order: by tuple (i_a, i_b, p_a, p_b), exact zeros first, then by
    # grid index; an exact zero is a bracket of width 0
    a, b, kind, g = hits = np.concatenate(hits, axis=1)
    a, b, kind, g = hits[:, np.lexsort((g, kind, p[b], p[a], i[b], i[a]))]
    n1, n2, l1, l2 = ns[i[a]], ns[i[b]], ls[p[a]], ls[p[b]]
    fa = np.array([Om[x][y] - Om[z][y]
                   for x, z, y in zip(a.tolist(), b.tolist(), g.tolist())],
                  dtype=float)
    roots = _bisect(model, c, n1, l1, n2, l2, mus[g], mus[g + kind], fa)
    events = _events(model, c, n1, l1, n2, l2, roots)
    return sorted(events, key=lambda e: (e.lam.imag, e.mu, e.n1))


def _bisect(model, c, n1, l1, n2, l2, a, b, fa):
    """Bisect every bracket [a, b] of the residual together, updating a, b
    and fa = f(a) in place; a bracket stops when its width is <= BISECT_TOL
    or its midpoint is an exact root."""
    while True:
        live = np.flatnonzero(b - a > BISECT_TOL)
        if not live.size:
            return 0.5 * (a + b)
        m = 0.5 * (a[live] + b[live])
        fm = collision_residual(model, n1[live], l1[live], n2[live], l2[live],
                                m, c)
        left = (fa[live] < 0.0) != (fm < 0.0)
        root = fm == 0.0                           # a = b = m: 0.5*(a+b) = m
        a[live] = np.where(left & ~root, a[live], m)
        b[live] = np.where(left | root, m, b[live])
        fa[live] = np.where(left, fa[live], fm)


def _events(model, c, n1, l1, n2, l2, mu) -> list[CollisionEvent]:
    """The roots that are collisions, one per (lambda, mu) class: the first
    root of a class in scan order is kept."""
    shift = mu <= -0.5 + 1e-15  # -1/2 is excluded; use the +1/2 representative
    mu = np.where(shift, mu + 1.0, mu)
    n1, n2 = n1 - shift, n2 - shift
    r = collision_residual(model, n1, l1, n2, l2, mu, c)
    lams = -1j * _Omega(model, c, l1, n1 + mu)
    # an Im < 0 root is skipped: its mirror is found from the mirrored tuple
    keep = (np.abs(r) <= RESIDUAL_TOL) & (lams.imag >= -LAMBDA_TOL)
    found: dict[tuple, CollisionEvent] = {}
    for j in np.flatnonzero(keep):
        lam, m = complex(lams[j]), float(mu[j])
        key = (round(lam.real, 9), round(abs(lam.imag), 9), round(m, 9))
        found.setdefault(key, CollisionEvent(
            n1=int(n1[j]), l1=int(l1[j]), n2=int(n2[j]), l2=int(l2[j]),
            mu=m, lam=lam, at_origin=abs(lam) < LAMBDA_TOL))
    return list(found.values())


def mirror_events(model: ModelSpec,
                  events: Sequence[CollisionEvent]) -> list[CollisionEvent]:
    """Re-expand deduplicated events with their lambda -> -lambda mirrors."""
    pair = model.mirror
    out = list(events)
    for e in events:
        if e.at_origin:
            continue
        # mirrored tuple, reordered so the first mode index is the larger one
        mu, n1, l1, n2, l2 = -e.mu, -e.n2, pair[e.l2], -e.n1, pair[e.l1]
        if mu <= -0.5:
            mu, n1, n2 = mu + 1.0, n1 - 1, n2 - 1
        out.append(replace(e, n1=n1, l1=l1, n2=n2, l2=l2, mu=mu, lam=-e.lam))
    return out


def secant_curve_data(model: ModelSpec, c: float, n_values: Sequence[int],
                      k_grid: Sequence[float]) -> np.ndarray:
    """Sample the curve families Omega_l(k + n); intersections are collisions.

    Returns a float array of rows (l, n, k, Omega_l(k + n)), CSV-ready.
    """
    ns = np.asarray(n_values, dtype=float)
    ks = np.asarray(k_grid, dtype=float)
    rows = np.empty((len(model.branches), ns.size, ks.size, 4))
    for b, out in zip(model.branches, rows):
        out[..., 0] = b.index
        out[..., 1] = ns[:, None]
        out[..., 2] = ks
        out[..., 3] = eval_Omega(model, b.index, ks + ns[:, None], c)
    return rows.reshape(-1, 4)


def trace_first_collision_vs_depth(g: float, h_grid: Sequence[float],
                                   n_max: int = 3) -> np.ndarray:
    """Rows (h, Im(lambda)) of the non-origin water-wave collision closest to
    the origin, per depth h.  Approaches 3/4 as h grows (g = 1)."""
    rows = np.empty((len(h_grid), 2))
    for row, h in zip(rows, h_grid):
        if h <= 0:
            raise ValueError(f"depth must be positive, got {h!r}")
        model = make_model("water-waves", {"g": g, "h": h})
        c = bifurcation_speed(model, 1, 1)
        events = [e for e in find_collisions(model, c, n_max)
                  if not e.at_origin and e.lam.imag > 0]
        if not events:
            raise NumericalError(
                f"no non-origin collision at h = {h:g}; increase n_max")
        row[:] = h, min(e.lam.imag for e in events)
    return rows

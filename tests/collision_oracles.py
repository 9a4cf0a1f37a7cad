"""Collision scans kept as oracles for ``hfstab.collisions.find_collisions``.

``all_pairs_scan`` is the array scan without the range test: it subtracts
the Omega rows of every mode tuple, so a scan that skips tuples whose rows
have disjoint ranges must give the same events, bit for bit.
``per_tuple_scan`` is the scan one mode tuple and one bracket at a time.
"""

import itertools

import numpy as np

from hfstab import collisions
from hfstab.collisions import collision_residual
from hfstab.models import eval_Omega


def all_pairs_scan(model, c, n_max):
    """find_collisions over every mode tuple, with its blocks, bisection and
    event selection."""
    G = collisions.GRID_POINTS
    mus = -0.5 + np.arange(G + 1) / G
    ls = np.array([b.index for b in model.branches])
    ns = np.arange(-n_max, n_max + 1)
    rows = max(1, collisions._BLOCK // (G + 1))
    Om = [[eval_Omega(model, int(l), ns[lo:lo + rows, None] + mus, c)
           for lo in range(0, ns.size, rows)] for l in ls]
    row = lambda p, i: Om[p][i // rows][i % rows]

    hits = []
    for i1, p1, p2 in itertools.product(range(ns.size), range(ls.size),
                                        range(ls.size)):
        top = i1 + (p1 < p2)
        for lo in range(0, top, rows):
            f = row(p1, i1) - Om[p2][lo // rows][:top - lo]
            for kind, mask in enumerate((f == 0.0, f[:, :-1] * f[:, 1:] < 0.0)):
                w = mask.shape[1]
                hits += [(i1, lo + j // w, p1, p2, kind, j % w)
                         for j in np.flatnonzero(mask).tolist()]
    hits.sort()
    i1, i2, p1, p2, kind, i = np.array(hits, dtype=int).reshape(-1, 6).T
    n1, n2, l1, l2 = ns[i1], ns[i2], ls[p1], ls[p2]
    fa = np.array([row(a, b)[g] - row(d, e)[g] for b, e, a, d, _, g in hits],
                  dtype=float)
    roots = collisions._bisect(model, c, n1, l1, n2, l2, mus[i],
                               mus[i + kind], fa)
    events = collisions._events(model, c, n1, l1, n2, l2, roots)
    return sorted(events, key=lambda e: (e.lam.imag, e.mu, e.n1))


def per_tuple_scan(model, c, n_max):
    """The scan one mode tuple and one bracket at a time, each root bisected
    with scalar residuals; the first root of a (lambda, mu) class in tuple
    order is kept."""
    G = collisions.GRID_POINTS
    mus = -0.5 + np.arange(G + 1) / G
    ls = [b.index for b in model.branches]
    ns = range(-n_max, n_max + 1)
    tuples = [(n1, l1, n2, l2) for n1 in ns for n2 in ns for l1 in ls
              for l2 in ls if n1 > n2 or (n1 == n2 and (l1, l2) == (1, 2))]
    found = {}
    for n1, l1, n2, l2 in tuples:
        f = lambda mu: collision_residual(model, n1, l1, n2, l2, mu, c)
        grid = [f(float(mu)) for mu in mus]
        roots = [float(mus[i]) for i in range(G + 1) if grid[i] == 0.0]
        for i in range(G):
            if grid[i] * grid[i + 1] < 0.0:
                a, b, fa = float(mus[i]), float(mus[i + 1]), grid[i]
                while b - a > collisions.BISECT_TOL:
                    m = 0.5 * (a + b)
                    fm = f(m)
                    if fm == 0.0:
                        a = b = m
                    elif (fa < 0.0) != (fm < 0.0):
                        b = m
                    else:
                        a, fa = m, fm
                roots.append(0.5 * (a + b))
        for mu in roots:
            m1, m2 = (n1, n2) if mu > -0.5 + 1e-15 else (n1 - 1, n2 - 1)
            mu = mu if mu > -0.5 + 1e-15 else mu + 1.0
            r = collision_residual(model, m1, l1, m2, l2, mu, c)
            if abs(r) > collisions.RESIDUAL_TOL:
                continue
            lam = -1j * eval_Omega(model, l1, m1 + mu, c)
            key = (round(lam.real, 9), round(abs(lam.imag), 9), round(mu, 9))
            if lam.imag >= -collisions.LAMBDA_TOL and key not in found:
                found[key] = (m1, l1, m2, l2, mu, lam)
    return sorted(found.values(), key=lambda e: (e[5].imag, e[4], e[0]))

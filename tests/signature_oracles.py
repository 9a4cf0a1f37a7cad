"""Closed-form Krein-signature formulas, kept as oracles for the one
signature wᵀS_R(k)w = v†S(k)v (v = P·w) of ``hfstab.krein``.

Each formula follows from the Hessian and Poisson symbols of one model kind
by hand, so agreement on every solver event checks the library's eigenvectors,
Hessians and signs independently.
"""

import numpy as np

from hfstab.models import eval_omega

# canonical Poisson matrix, and the similarity P = diag(1, i) that takes
# the real eigenvector w of a mode's real form R to the eigenvector P·w of J·S
J_CANONICAL = np.array([[0.0, 1.0], [-1.0, 0.0]])
P_CANONICAL = np.diag([1.0, 1j])


def canonical_hessian(model, c, k):
    """S(k) = [[C, -ick], [ick, B]] of a canonical model (A = 0)."""
    return np.array([[model.c_symbol(k), -1j * c * k],
                     [1j * c * k, model.b_symbol(k)]], dtype=complex)


def scalar_opposite(model, event):
    """Opposite-signature test (n1+mu)(n2+mu) < 0 for scalar collisions."""
    if event.at_origin:
        raise ValueError("origin collisions carry zero signature")
    return (event.n1 + event.mu) * (event.n2 + event.mu) < 0


def cankrein1_product(model, event):
    """First-row signature product: C(k1)C(k2)w1w2."""
    k1, k2 = event.n1 + event.mu, event.n2 + event.mu
    C = model.c_symbol
    return (C(k1) * C(k2) * eval_omega(model, event.l1, k1)
            * eval_omega(model, event.l2, k2))


def cankrein2_product(model, event):
    """Second-row signature product: B(k1)B(k2)w1w2."""
    k1, k2 = event.n1 + event.mu, event.n2 + event.mu
    B = model.b_symbol
    return (B(k1) * B(k2) * eval_omega(model, event.l1, k1)
            * eval_omega(model, event.l2, k2))


def sym_product(model, event, which=2):
    """Shortcuts for the branches +-omega1 of every canonical model: w1*w2
    times the C-product (which=1) or B-product."""
    k1, k2 = event.n1 + event.mu, event.n2 + event.mu
    w = eval_omega(model, event.l1, k1) * eval_omega(model, event.l2, k2)
    sym = model.c_symbol if which == 1 else model.b_symbol
    return w * sym(k1) * sym(k2)


def canonical_products(model, event):
    """Every closed-form canonical signature product of one event."""
    return [cankrein1_product(model, event), cankrein2_product(model, event),
            sym_product(model, event, 1), sym_product(model, event, 2)]


def bw_signature(model, l, k, V):
    """2*w*(w - kV): v†S v on the unnormalised eigenvector (ik, -i*w) of
    the branch-l mode at wavenumber k."""
    w = eval_omega(model, l, k)
    return 2.0 * w * (w - k * V)

"""Krein signatures of colliding eigenvalues, and the analysis pipeline.

The linearized problem is u_t = L u with L = J·S (``models.real_matrix``).
At zero amplitude each Fourier mode k carries the real d x d block R(k);
its eigenvector w for rho = -Omega_l(k) gives the mode's Krein signature,
the sign of wᵀS_R(k)w (J(k)S(k) has the eigenvector P·w for lambda = i*rho).
Opposite signatures at a collision are necessary for the pair to leave the
imaginary axis, so the pipeline verdict deliberately says only
``HF-instability-possible`` or ``HF-instability-excluded``: the condition
is necessary, not sufficient.  ``screen``, the one path to signed events,
finds the collisions and signs them; the dispersion relation was checked
when the model was built (``models.ModelSpec``).

Eigenvectors are null vectors of the real 2x2 block R(k) - rho (w = [1]
for scalar models); no numerical eigensolver enters this path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (ModelSpec, SCALAR, NumericalError, bifurcation_speed,
                     eval_Omega, hessian, real_matrix)
from .collisions import CollisionEvent, find_collisions, VERDICT_POTENTIAL

__all__ = [
    "AnalysisReport",
    "eigenmode", "signature", "signature_product", "screen", "run_pipeline",
    "OVERALL_POSSIBLE", "OVERALL_EXCLUDED",
]

OVERALL_POSSIBLE = "HF-instability-possible"
OVERALL_EXCLUDED = "HF-instability-excluded"

# a 2x2 block whose null vector is below this (relative) is degenerate
EIGENVECTOR_TOL = 1e-10


@dataclass
class AnalysisReport:
    """Result of the six-step pipeline for one model and harmonic N; the
    speed is that of the branch-1 bifurcation."""
    model: str
    N: int
    speed: float
    events: list[CollisionEvent]
    overall: str
    counts: dict

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "N": self.N,
            "branch": 1,
            "speed": self.speed,
            "events": [e.to_dict() for e in self.events],
            "overall": self.overall,
            "counts": self.counts,
        }


# --------------------------------------------------------------------------
# Eigenvectors and signatures

def eigenmode(model: ModelSpec, l: int, k: float, c: float) -> np.ndarray:
    """Real unit eigenvector w of the block R(k) of the branch-l mode at
    wavenumber k, for rho = -Omega_l(k)."""
    if model.kind == SCALAR:
        return np.ones(1)
    Omega = eval_Omega(model, l, k, c)
    T = real_matrix(model, np.array([k]), c) + Omega * np.eye(2)
    # null space of a singular 2x2: read it off whichever row is larger
    w0 = np.array([T[0, 1], -T[0, 0]])
    w1 = np.array([T[1, 1], -T[1, 0]])
    w = w0 if np.linalg.norm(w0) >= np.linalg.norm(w1) else w1
    scale = max(np.linalg.norm(T), 1.0)
    if np.linalg.norm(w) <= EIGENVECTOR_TOL * scale:
        raise NumericalError(
            f"no eigenvector within tolerance on branch l={l} at k={k!r} "
            f"(block is {EIGENVECTOR_TOL:g}-degenerate)")
    w = w / np.linalg.norm(w)
    if np.linalg.norm(T @ w) > EIGENVECTOR_TOL * scale:
        raise NumericalError(
            f"lambda = {-1j * Omega!r} is not an eigenvalue of the block on "
            f"branch l={l} at k={k!r}")
    return w


def signature(model: ModelSpec, l: int, k: float, c: float) -> float:
    """wᵀS_R(k)w for the real unit eigenvector w of the branch-l mode at
    wavenumber k; its sign is the Krein signature.  Raises ZeroDivisionError
    for a scalar mode at k = 0."""
    w = eigenmode(model, l, k, c)
    return float(w @ hessian(model, k, c) @ w)


def signature_product(model: ModelSpec, event: CollisionEvent, c: float) -> float:
    """Product of the signatures of the two colliding modes."""
    return (signature(model, event.l1, event.n1 + event.mu, c)
            * signature(model, event.l2, event.n2 + event.mu, c))


def screen(model: ModelSpec, c: float, n_max: int,
           N: int = 1) -> list[CollisionEvent]:
    """Find the collisions at speed c for |n| <= n_max of modes a harmonic-N
    wave couples, and sign each one; an origin event gets product 0."""
    events = find_collisions(model, c, n_max, N)
    for e in events:
        e.signature_product = (0.0 if e.at_origin
                               else signature_product(model, e, c))
    return events


def run_pipeline(model: ModelSpec, N: int = 1,
                 n_max: int = 10) -> AnalysisReport:
    """Run the six-step necessary-condition test and return the report.

    Speed comes from the branch-1 bifurcation at harmonic N.  That wave has
    period 2*pi/N, so it couples modes n1 and n2 only when N divides
    n1 - n2: the scan looks only for those collisions, as no other can
    leave the axis.  The overall verdict is 'HF-instability-possible' iff
    at least one event is 'potential-instability'.
    """
    c = bifurcation_speed(model, 1, N)
    events = screen(model, c, n_max, N)

    n_potential = sum(e.verdict == VERDICT_POTENTIAL for e in events)
    counts = {
        "events": len(events),
        "at_origin": sum(e.at_origin for e in events),
        "non_origin": sum(not e.at_origin for e in events),
        "potential_instability": n_potential,
    }
    overall = OVERALL_POSSIBLE if n_potential else OVERALL_EXCLUDED
    return AnalysisReport(model=model.name, N=N, speed=c,
                          events=events, overall=overall, counts=counts)

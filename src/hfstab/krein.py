"""Krein signatures of colliding eigenvalues, and the analysis pipeline.

The linearized problem is u_t = L u with L = J·S (``models.Linearization``).
At zero amplitude each Fourier mode k carries the real d x d block R(k);
its eigenvector w for rho = -Omega_l(k) gives the mode's Krein signature,
the sign of wᵀS_R(k)w (J(k)S(k) has the eigenvector P·w for lambda = i*rho).
Opposite signatures at a collision are necessary for the pair to leave the
imaginary axis, so the pipeline verdict deliberately says only
``HF-instability-possible`` or ``HF-instability-excluded``: the condition
is necessary, not sufficient.

Eigenvectors are null vectors of the real 2x2 block R(k) - rho (w = [1]
for scalar models); no numerical eigensolver enters this path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import (ModelSpec, ModeIndex, Linearization, eval_Omega,
                     bifurcation_speed, validate_dispersive, spectrum_slice)
from .collisions import (CollisionEvent, CollisionOptions, find_collisions,
                         VERDICT_NONE, VERDICT_POTENTIAL, VERDICT_INDETERMINATE)

__all__ = [
    "SignatureError", "EigenvectorNotFoundError", "EigenMode", "AnalysisReport",
    "eigenmode", "signature", "signature_product", "classify", "run_pipeline",
    "OVERALL_POSSIBLE", "OVERALL_EXCLUDED",
]

OVERALL_POSSIBLE = "HF-instability-possible"
OVERALL_EXCLUDED = "HF-instability-excluded"

# signature products with magnitude below this draw no conclusion
BORDERLINE_TOL = 1e-12


class SignatureError(Exception):
    pass


class EigenvectorNotFoundError(SignatureError):
    pass


@dataclass(frozen=True)
class EigenMode:
    """lambda of one mode's block of J·S and real unit eigenvector w of R."""
    mode: ModeIndex
    lam: complex
    components: np.ndarray


@dataclass
class AnalysisReport:
    """Result of the six-step pipeline for one model, branch, and harmonic N."""
    model: str
    N: int
    branch: int
    speed: float
    events: list[CollisionEvent]
    overall: str
    counts: dict
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "N": self.N,
            "branch": self.branch,
            "speed": self.speed,
            "events": [e.to_dict() for e in self.events],
            "overall": self.overall,
            "counts": self.counts,
            "diagnostics": self.diagnostics,
        }


# --------------------------------------------------------------------------
# Eigenvectors and signatures

def eigenmode(model: ModelSpec, idx: ModeIndex, c: float,
              tol: float = 1e-10) -> EigenMode:
    """Real unit eigenvector of the mode's block R(k) for rho = -Omega_l(k)."""
    op = Linearization(model, c)
    Omega = eval_Omega(model, idx.l, idx.k, c)
    lam = -1j * Omega
    if op.size == 1:
        return EigenMode(idx, lam, np.ones(1))
    T = op.real_matrix(np.array([idx.k])) + Omega * np.eye(2)
    # null space of a singular 2x2: read it off whichever row is larger
    w0 = np.array([T[0, 1], -T[0, 0]])
    w1 = np.array([T[1, 1], -T[1, 0]])
    w = w0 if np.linalg.norm(w0) >= np.linalg.norm(w1) else w1
    scale = max(np.linalg.norm(T), 1.0)
    if np.linalg.norm(w) <= tol * scale:
        raise EigenvectorNotFoundError(
            f"no eigenvector within tolerance at {idx} (block is {tol:g}-degenerate)")
    w = w / np.linalg.norm(w)
    if np.linalg.norm(T @ w) > tol * scale:
        raise EigenvectorNotFoundError(
            f"lambda = {lam!r} is not an eigenvalue of the block at {idx}")
    return EigenMode(idx, lam, w)


def signature(model: ModelSpec, em: EigenMode, c: float) -> float:
    """wᵀS_R(k)w for the mode's real unit eigenvector w; its sign is the
    Krein signature.  Raises ZeroDivisionError for a scalar mode at k = 0."""
    w = em.components
    return float(w @ Linearization(model, c).hessian(em.mode.k) @ w)


def signature_product(model: ModelSpec, event: CollisionEvent, c: float) -> float:
    """Product of the signatures of the two colliding modes."""
    return (signature(model, eigenmode(model, event.idx1, c), c)
            * signature(model, eigenmode(model, event.idx2, c), c))


def classify(model: ModelSpec, events: list[CollisionEvent], c: float) -> None:
    """Set each event's signature product and verdict, in place; an origin
    event gets product 0 and draws no conclusion."""
    for e in events:
        if e.at_origin:
            e.signature_product = 0.0
            e.verdict = VERDICT_INDETERMINATE
            continue
        p = signature_product(model, e, c)
        e.signature_product = p
        if p < -BORDERLINE_TOL:
            e.verdict = VERDICT_POTENTIAL
        elif abs(p) <= BORDERLINE_TOL:
            e.verdict = VERDICT_INDETERMINATE
        else:
            e.verdict = VERDICT_NONE


def run_pipeline(model: ModelSpec, N: int = 1, n_max: int = 10,
                 opts: CollisionOptions | None = None,
                 branch: int = 1) -> AnalysisReport:
    """Run the six-step necessary-condition test and return the report.

    Speed comes from the branch-`branch` bifurcation at harmonic N; every
    non-origin collision gets a signature verdict; the overall verdict is
    'HF-instability-possible' iff at least one event is 'potential-instability'.
    """
    validate_dispersive(model)
    c = bifurcation_speed(model, branch, N)
    events = find_collisions(model, c, n_max, opts)
    classify(model, events, c)

    n_potential = sum(e.verdict == VERDICT_POTENTIAL for e in events)
    counts = {
        "events": len(events),
        "at_origin": sum(e.at_origin for e in events),
        "non_origin": sum(not e.at_origin for e in events),
        "potential_instability": n_potential,
    }
    slice_mu = 0.25
    diag_slice = spectrum_slice(model, c, slice_mu, range(-3, 4))
    diagnostics = {
        "spectrum_slice_mu": slice_mu,
        "spectrum_slice_im": [lam.imag for _, lam in diag_slice],
        "max_abs_re_lambda": max(abs(lam.real) for _, lam in diag_slice),
    }
    overall = OVERALL_POSSIBLE if n_potential else OVERALL_EXCLUDED
    return AnalysisReport(model=model.name, N=N, branch=branch, speed=c,
                          events=events, overall=overall, counts=counts,
                          diagnostics=diagnostics)

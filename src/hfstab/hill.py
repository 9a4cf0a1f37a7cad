"""Fourier-Floquet-Hill spectra of the linearization about a traveling wave.

The linearized problem is u_t = L u with L = J·(S + W): the Poisson symbol
J and Hessian symbol S of ``models.hessian``, plus the Toeplitz
multiplication matrix W of the wave (``models.wave_part``).  For each
Floquet exponent mu in (-1/2, 1/2] the bi-infinite Fourier matrix of L on
the modes n + mu is truncated to |n| <= M and solved densely.  W does not
depend on mu, so a spectrum builds it once per wave.

At zero amplitude W is None and the matrix is diagonal (scalar) or
2x2-block (two-component), with the eigenvalues -i*Omega_l(n+mu) of the
dispersion relation.  The zero wave's spectrum is that closed form: it takes
no eigensolve, and every real part is +0.  No canonical model has a
finite-amplitude wave, so every canonical spectrum is closed form.

Hill matrices are built and solved in real arithmetic: L = i·P R P^-1 with
R real (``models.real_matrix``), so lambda = i*rho for the
eigenvalues rho of R, and axis eigenvalues have Re exactly 0.  The solves are
too small to gain from BLAS threads, so ``import hfstab`` asks for one.
Slices are built and solved in stacks, one ``np.linalg.eigvals`` call and one
row-wise sort per stack; each slice is bitwise what a solve of its own matrix
gives.  A stack holds 500 // N + 1 matrices of size N, the fewest for which
numpy's eigvals releases the GIL: it does so only for a call whose matrices
times N exceed 500.  So the stacks of one spectrum are solved in parallel,
by one thread per CPU the process may use (divided by OPENBLAS_NUM_THREADS,
at most ``_MAX_WORKERS``), the calling thread among them.  The threads
start and end within each call, and every slice is still one
single-threaded LAPACK call on the same matrix, so the spectrum does not
depend on the thread count.

The mu grid is uniform plus a fixed-width window around each predicted
collision mu and its mirror -mu (``MuGridSpec.windows``), sampled
``refine_factor`` times more densely; it is exactly symmetric about 0.
``hfstab spectrum`` predicts only the collisions off the origin at the
bifurcation speed, each at its mu for the wave's own speed; the split
near-origin events of the origin collision get no window.
Every model hfstab accepts is reversible (its branch set is closed under
k -> -k, which ``models.validate_dispersive`` checks when the model is
built) and every wave is an even cosine series, so the spectrum at -mu is
the negated spectrum at mu: R(-mu) = -Q R(mu) Q^-1 for the flip Q that
reverses the modes within each component block (and negates the second
block of a canonical model).  A grid's mu >= 0 half is computed and held;
each mu < 0 slice is its partner negated and reversed, so still sorted, when
read, exact to the eigensolver's own backward error.  The readers (the CSV
rows, bubble detection and ``SpectrumSet.slices``) take every slice a block
at a time from one generator (``_blocks``).  ``SpectrumSet.max_real_part``
needs no mirrored row: R is real, so each slice's real parts are symmetric
about 0, and a mirrored slice's peak is its solved partner's.

Bubbles (connected arcs of eigenvalues off the imaginary axis) are
detected by thresholding Re(lambda) and clustering in Im(lambda), and each
is linked to the nearest prediction that can open one.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .models import (ModelSpec, TravelingWave, NumericalError, eval_Omega,
                     real_matrix, wave_part)
from .collisions import CollisionEvent, VERDICT_NONE
from . import report

__all__ = [
    "SpectrumSet", "Bubble", "MuGridSpec",
    "WINDOW_WIDTH", "build_mu_grid", "zero_wave", "assemble",
    "full_spectrum", "detect_bubbles", "spectrum_to_csv_rows",
]

BUBBLE_THRESHOLD = 1e-7
IM_CLUSTER_GAP = 1e-2
WINDOW_WIDTH = 5e-3   # half-width of a refinement window in mu
# numpy's eigvals releases the GIL only when matrices x N exceeds this
_GIL_OUTPUTS = 500
# Most threads one spectrum is solved on: each holds a stack in flight
_MAX_WORKERS = 4


def _stack_size(n: int) -> int:
    """Slices per stacked solve of n x n matrices: the fewest for which
    eigvals releases the GIL."""
    return _GIL_OUTPUTS // n + 1


def _worker_count() -> int:
    """CPUs this process may use, divided by the OpenBLAS threads of each
    solve, at least 1 and at most ``_MAX_WORKERS``."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    try:
        blas = int(os.environ.get("OPENBLAS_NUM_THREADS", ""))
    except ValueError:
        blas = 0
    if blas < 1:   # OpenBLAS then runs one thread per CPU
        blas = cpus
    return max(1, min(_MAX_WORKERS, cpus // blas))


_WORKERS = _worker_count()


def zero_wave(model: ModelSpec, c: float) -> TravelingWave:
    """The trivial wave at speed c (constant coefficients)."""
    return TravelingWave(model=model.name, c=c, coefficients=[0.0, 0.0])


@dataclass
class SpectrumSet:
    """Point spectra over increasing ``mus``, each slice's eigenvalues
    sorted by (Im, Re).  ``values`` holds the solved slices, one row for each
    of the last ``len(values)`` mus; each earlier mu is the mirror of a
    solved one, and its slice is derived when read (``_blocks``)."""
    mus: np.ndarray = field(default_factory=lambda: np.empty(0))
    values: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=complex))

    @property
    def slices(self) -> list[tuple[float, np.ndarray]]:
        """(mu, eigenvalues) per slice, mirrored slices included."""
        return [(mu, row) for mus, rows in _blocks(self)
                for mu, row in zip(mus.tolist(), rows)]

    def max_real_part(self) -> float:
        """Largest Re(lambda) over every slice, 0.0 for none.  Each slice's
        real parts are +-Im rho over the conjugate pairs of a real R (+0 for
        a real rho), so a mirrored slice, its partner negated, has its
        partner's peak: the solved rows hold it."""
        return float(self.values.real.max(initial=0.0))


@dataclass
class Bubble:
    """One off-axis eigenvalue cluster."""
    center: complex
    max_growth: float
    mu_support: tuple[float, float]
    im_support: tuple[float, float]
    nearest_event: CollisionEvent | None = None
    event_distance: float | None = None

    def to_dict(self) -> dict:
        return {
            "center_re": self.center.real,
            "center_im": self.center.imag,
            "max_growth": self.max_growth,
            "mu_support": list(self.mu_support),
            "im_support": list(self.im_support),
            "nearest_event": (None if self.nearest_event is None
                              else self.nearest_event.to_dict()),
            "event_distance": self.event_distance,
        }


# --------------------------------------------------------------------------
# mu grids

@dataclass(frozen=True)
class MuGridSpec:
    """Uniform midpoint-avoiding grid plus optional refinement windows.

    ``windows`` lists mu centers; each center c and its mirror -c get extra
    sampling on [c - WINDOW_WIDTH, c + WINDOW_WIDTH] at ``refine_factor``
    times the base density.  The grid is symmetric about 0, and
    ``full_spectrum`` solves only its mu >= 0 half.
    """
    count: int = 200
    windows: tuple[float, ...] = ()
    refine_factor: int = 10


def build_mu_grid(spec: MuGridSpec) -> np.ndarray:
    """Strictly increasing mu values in (-1/2, 1/2), with g = -g[::-1].

    The mu >= 0 points are those of the uniform grid and the windows about
    every center and its mirror; the mu < 0 points are their negations, and
    mu = 0, when present, is +0.0.
    """
    if spec.count < 1:
        raise ValueError(f"mu grid count must be >= 1, got {spec.count!r}")
    base = -0.5 + (np.arange(spec.count) + 0.5) / spec.count
    parts = [base]
    n_local = max(3, int(round(2 * WINDOW_WIDTH
                               * spec.refine_factor * spec.count)))
    for center in {*spec.windows, *(-c for c in spec.windows)}:
        local = np.linspace(center - WINDOW_WIDTH, center + WINDOW_WIDTH,
                            n_local)
        parts.append(local[(local > -0.5) & (local < 0.5)])
    grid = np.sort(np.concatenate(parts))   # np.unique, without numpy.ma
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    half = grid[grid >= 0.0] + 0.0   # + 0.0 turns -0 into +0
    return np.concatenate([-half[half > 0.0][::-1], half])


# --------------------------------------------------------------------------
# Assembly and spectra

def _wavenumbers(mu, M: int) -> np.ndarray:
    """Modes n + mu, |n| <= M: shape (2M+1,) for a float mu, (B, 2M+1)
    for an array of B values."""
    return np.arange(-M, M + 1) + np.asarray(mu, dtype=float)[..., None]


def assemble(model: ModelSpec, wave: TravelingWave, mu: float,
             M: int) -> np.ndarray:
    """Real Hill matrix R for one Floquet exponent: the truncated Fourier
    matrix of L = J·(S + W) is L = i·P R P^-1 (``models.real_matrix``).

    Scalar models give a (2M+1)-dimensional matrix; two-component models
    give 2(2M+1), ordered as the two component blocks.
    """
    return real_matrix(model, _wavenumbers(mu, M), wave.c,
                       wave_part(model, wave, M))


def _sorted(vals: np.ndarray) -> np.ndarray:
    """Each row of ``vals`` sorted by (Im, Re)."""
    order = np.lexsort((vals.real, vals.imag), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def _solve(model: ModelSpec, c: float, W: np.ndarray,
           mus: np.ndarray, M: int) -> np.ndarray:
    """The eigenvalues i*rho of the real form R at each of ``mus``, one
    sorted row by (Im, Re) per mu.

    The matrices are built and solved a stack of ``_stack_size`` slices at a
    time, by up to ``_WORKERS`` threads (the caller's among them), each taking
    the next stack in mu order.  A failure stops the hand-out; once every
    thread has stopped, the first failing stack in mu order is raised."""
    values = np.empty((mus.size, len(model.branches) * (2 * M + 1)),
                      dtype=complex)
    step = _stack_size(values.shape[1])
    stacks = deque(range(0, mus.size, step))
    failures: dict[int, Exception] = {}

    def work() -> None:
        # a stack taken after a failure lies above it in mu, so a late look
        # at ``failures`` cannot change which failure is raised
        while not failures:
            try:
                lo = stacks.popleft()
            except IndexError:
                return
            block = mus[lo:lo + step]
            try:
                rho = np.linalg.eigvals(
                    real_matrix(model, _wavenumbers(block, M), c, W))
            except Exception as exc:   # raised by the caller below
                failures[lo] = exc
                return
            vals = (-rho.imag + 0.0) + 1j * rho.real   # + 0.0 turns -0 into +0
            values[lo:lo + step] = _sorted(vals)

    threads = [threading.Thread(target=work)
               for _ in range(min(_WORKERS, len(stacks)) - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        stacks.clear()
        for thread in threads:
            thread.join()
    if failures:
        lo = min(failures)
        if not isinstance(failures[lo], np.linalg.LinAlgError):
            raise failures[lo]
        block = mus[lo:lo + step]
        raise NumericalError(f"eigensolver failed for mu in "
                             f"[{block[0]!r}, {block[-1]!r}]") from failures[lo]
    return values


def full_spectrum(model: ModelSpec, wave: TravelingWave,
                  grid: MuGridSpec | np.ndarray, M: int) -> SpectrumSet:
    """Point spectra over a mu grid, in increasing mu.

    A finite wave's slices are solved in stacks (``_solve``); the zero
    wave's are the closed form -i*Omega_l(n + mu), with no eigensolve.  An
    explicit array of mu is computed whole.  A ``MuGridSpec`` grid is
    symmetric, so only its mu >= 0 slices are computed and held in
    ``values``; each mu < 0 slice is its partner's negated, derived when it
    is read (see the module docstring); every ``ModelSpec`` was checked for
    that reflection when it was built.
    """
    W = wave_part(model, wave, M)
    if isinstance(grid, MuGridSpec):
        mus = build_mu_grid(grid)
        solved = mus[np.count_nonzero(mus < 0.0):]
    else:
        mus = solved = np.array(sorted(float(m) for m in grid))
    if W is None:   # + 0.0 turns -0 into +0
        ks = _wavenumbers(solved, M)
        values = _sorted(np.concatenate(
            [-1j * eval_Omega(model, b.index, ks, wave.c)
             for b in model.branches], axis=-1) + 0.0)
    else:
        values = _solve(model, wave.c, W, solved, M)
    return SpectrumSet(mus, values)


def _blocks(spectrum: SpectrumSet):
    """Yield (mus, rows) blocks of every slice in mu order, as many whole
    slices as fit in a CSV block (``report._BLOCK`` rows) and at least one.
    A mirrored slice is its solved partner negated and reversed, so sorted
    by (Im, Re): row i < n_neg is derived from the row of -mu[i]."""
    mus, values = spectrum.mus, spectrum.values
    size = len(values)
    n_neg = mus.size - size
    step = max(1, report._BLOCK // (values.shape[1] or 1))
    for lo in range(0, mus.size, step):
        hi = min(lo + step, mus.size)
        rows = values[max(lo - n_neg, 0):max(hi - n_neg, 0)]
        if lo < n_neg:   # + 0.0 turns -0 into +0
            partners = values[size - min(hi, n_neg):size - lo]
            rows = np.concatenate([-partners[::-1, ::-1] + 0.0, rows])
        yield mus[lo:hi], rows


def spectrum_to_csv_rows(spectrum: SpectrumSet):
    """Yield (rows, 3) float blocks of (mu, re_lambda, im_lambda) in slice
    order, one per block of ``_blocks``, so the full table is never built."""
    for mus, vals in _blocks(spectrum):
        rows = np.empty(vals.shape + (3,))
        rows[..., 0] = mus[:, None]
        rows[..., 1] = vals.real
        rows[..., 2] = vals.imag
        yield rows.reshape(-1, 3)


# --------------------------------------------------------------------------
# Bubble detection

def detect_bubbles(spectrum: SpectrumSet,
                   predictions: list[CollisionEvent] | None = None
                   ) -> list[Bubble]:
    """Cluster eigenvalues with Re(lambda) > BUBBLE_THRESHOLD into bubbles.

    Single-linkage clustering with gap 1e-2 in Im(lambda); each bubble is
    linked to the prediction whose collision ordinate is nearest its center,
    among those off the origin whose verdict is not ``VERDICT_NONE``: an
    equal-signature collision cannot open a bubble.
    """
    mus, lams = [np.empty(0)], [np.empty(0, dtype=complex)]
    for block_mus, vals in _blocks(spectrum):   # in row-major order
        rows, cols = np.nonzero(vals.real > BUBBLE_THRESHOLD)
        if rows.size:   # a block without candidates adds nothing held
            mus.append(block_mus[rows])
            lams.append(vals[rows, cols])
    mus, lams = np.concatenate(mus), np.concatenate(lams)
    if not lams.size:
        return []
    order = np.argsort(lams.imag)
    mus, lams = mus[order], lams[order]
    breaks = np.flatnonzero(np.diff(lams.imag) > IM_CLUSTER_GAP)
    bounds = [0, *(breaks + 1), lams.size]
    eligible = [e for e in predictions or ()
                if not e.at_origin and e.verdict != VERDICT_NONE]
    bubbles = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk_mu, chunk = mus[lo:hi], lams[lo:hi]
        center = complex(chunk[int(np.argmax(chunk.real))])
        dist = lambda e: abs(abs(e.lam.imag) - abs(center.imag))
        nearest = min(eligible, key=dist, default=None)
        bubbles.append(Bubble(
            center=center,
            max_growth=float(chunk.real.max()),
            mu_support=(float(chunk_mu.min()), float(chunk_mu.max())),
            im_support=(float(chunk.imag.min()), float(chunk.imag.max())),
            nearest_event=nearest,
            event_distance=None if nearest is None else dist(nearest)))
    return bubbles

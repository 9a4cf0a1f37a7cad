"""High-frequency instability screening for periodic traveling waves.

The package mechanizes a six-step necessary-condition test: dispersion
relation, bifurcation speed, zero-amplitude spectrum, eigenvalue
collisions, Krein signatures, and a Fourier-Floquet-Hill verification of
the predictions on numerically constructed small-amplitude waves.
"""

import os

# Hill spectra are hundreds of small eigensolves (N ~ 130), which a second
# OpenBLAS thread slows down.  OpenBLAS reads this when numpy loads, so it
# is set before any numpy import; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .models import (ModelSpec, ModeIndex, DispersionBranch, TravelingWave,
                     BUILTIN_MODELS, make_model, model_from_config,
                     eval_omega, eval_Omega, bifurcation_speed,
                     spectrum_slice, Linearization,
                     ModelError, UnknownModelError, ModelNotDispersiveError,
                     SCALAR, CANONICAL, NONCANONICAL_BW)
from .collisions import (CollisionEvent, find_collisions,
                         collision_residual, mirror_events,
                         secant_curve_data, trace_first_collision_vs_depth,
                         NoCollisionFoundError)
from .krein import (run_pipeline, screen, AnalysisReport,
                    signature_product, signature, eigenmode,
                    OVERALL_POSSIBLE, OVERALL_EXCLUDED)
from .waves import (stokes_wave, solve_wave_collocation, wave_residual,
                    bw_flat_state_analysis, FlatStateReport, ResonanceError,
                    WaveConvergenceError)
from .hill import (assemble, full_spectrum, detect_bubbles,
                   zero_amplitude_check, zero_wave, MuGridSpec,
                   SpectrumSet, Bubble)

__version__ = "0.1.0"

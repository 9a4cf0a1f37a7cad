"""High-frequency instability screening for periodic traveling waves.

The package mechanizes a six-step necessary-condition test: dispersion
relation, bifurcation speed, zero-amplitude spectrum, eigenvalue
collisions, Krein signatures, and a Fourier-Floquet-Hill verification of
the predictions on numerically constructed small-amplitude waves.  Each
name is imported from its own module, e.g. ``hfstab.models.make_model``.
"""

import os

# Hill spectra are hundreds of small eigensolves (N ~ 130), which a second
# OpenBLAS thread slows down.  OpenBLAS reads this when numpy loads, so it
# is set before any numpy import: importing any hfstab module runs this
# first.  A value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

"""Numerical toolkit for ball multipliers, their resolvents, and spectra.

Submodules:

* grid        - centered grids, transform pair
* symbols     - frequency symbols, cutoffs, bumps, the Mikhlin screen
* multiplier  - operator application, kernels, seminorms, dense oracle
* neumann     - cutoff/Neumann resolvent decompositions with certified tails
* probes      - approximate-eigenfunction sweeps and resolvent-norm maps
* norms       - L^p, weighted L^p, A_p screen, Herz, Besov, Triebel
* fieldio     - CSV/JSON field dumps
* cli         - batch experiment driver
"""

import os

# Set before the imports below load numpy: OpenBLAS reads it once, at load. A
# program that imported numpy before riesz keeps the BLAS threads it started.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .grid import Field, GridSpec, forward_transform, inverse_transform
from .multiplier import apply, convolve, dense_oracle, kernel_of, schwartz_seminorm
from .neumann import (
    NeumannPlan,
    choose_r0,
    forward_decomposition,
    make_plan,
    reverse_decomposition,
    tail_kernel_bound,
)
from .norms import (
    HerzParams,
    WeightSpec,
    ap_constant_estimate,
    besov_norm,
    build_lp_family,
    herz_norm,
    lp_norm,
    triebel_norm,
    weighted_lp_norm,
)
from .probes import (
    ProbeSpec,
    decay_curve,
    lambda_to_xi0,
    probe_field,
    probe_ratio,
    spectrum_map,
    weighted_probe_report,
)
from .symbols import (
    BumpProfile,
    Symbol,
    bochner_symbol,
    bump_phi0,
    critical_delta,
    cutoff_pair,
    dist_to_unit_interval,
    mikhlin_check,
    resolvent_symbol,
)

__version__ = "0.1.0"

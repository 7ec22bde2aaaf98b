"""Moment-closure and diffusion-limit solvers for glioma invasion.

Simulates glioma-cell migration through anisotropic brain tissue by moment
closures (P1F, M1F, K1F, higher-order PN/PNF) of a kinetic transport
equation with fiber-alignment relaxation and a haptotaxis-like coupling to
the tissue volume fraction, alongside the parabolic diffusion limit, on
synthetic or DTI-derived water-tensor fields.
"""

import os as _os

# MOMENT_GLIOMA_THREADS caps the BLAS worker threads; it must be applied
# before numpy initializes its backend, hence before any submodule import.
_threads = _os.environ.get("MOMENT_GLIOMA_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .closures import kershaw_spectrum, pn_basis  # noqa: E402
from .config import RunConfig, parse_config, serialize_config  # noqa: E402
from .diffusion import build_diffusion_fields, diffusion_step, run_diffusion  # noqa: E402
from .grid import GridSpec  # noqa: E402
from .kinetic import ScalingParams, compute_scaling  # noqa: E402
from .metrics import ComparisonReport, relative_difference  # noqa: E402
from .quadrature import SphereQuadrature, build_quadrature, integrate  # noqa: E402
from .scenarios import (  # noqa: E402
    Scenario,
    build_fiber_strand_scenario,
    convergence_study,
    run_scenario,
    scenario_from_config,
)
from .solver import SolverConfig, run_kinetic, strang_step  # noqa: E402
from .systems import build_system  # noqa: E402
from .tissue import (  # noqa: E402
    TissueFields,
    WaterTensorField,
    characteristic_length,
    derive_tissue_fields,
    fractional_anisotropy,
    haptotactic_coefficient,
    peanut_density,
    peanut_pressure_tensor,
    synth_fiber_strand,
)

__version__ = "0.1.0"

"""Moment-closure and diffusion-limit solvers for glioma invasion.

Simulates glioma-cell migration through anisotropic brain tissue by moment
closures (P1F, M1F, K1F, higher-order PN/PNF) of a kinetic transport
equation with fiber-alignment relaxation and a haptotaxis-like coupling to
the tissue volume fraction, alongside the parabolic diffusion limit, on
synthetic or DTI-derived water-tensor fields.
"""

from .closures import kershaw_spectrum, pn_basis
from .config import RunConfig, parse_config, serialize_config
from .diffusion import build_diffusion_fields, diffusion_step, run_diffusion
from .grid import GridSpec
from .kinetic import ScalingParams, compute_scaling
from .metrics import ComparisonReport, relative_difference
from .quadrature import SphereQuadrature, build_quadrature
from .scenarios import (
    Scenario,
    build_fiber_strand_scenario,
    convergence_study,
    run_scenario,
    scenario_from_config,
)
from .solver import run_kinetic
from .systems import build_system
from .tissue import (
    TissueFields,
    WaterTensorField,
    derive_tissue_fields,
    haptotactic_coefficient,
    peanut_pressure_tensor,
    synth_fiber_strand,
)

__version__ = "0.1.0"

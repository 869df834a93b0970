"""Reflected diffusions in piecewise-smooth domains.

Geometry checks for oblique reflection data, admissible test-function
families, weak-form and adjoint-relationship stationarity verification,
constrained Euler simulation, and a simplex-constrained stationary-measure
solver.
"""

from .coefficients import CoefficientField, Density
from .domain import (
    BoundaryPiece,
    DomainSpec,
    SingularPoint,
    active_set,
    boundary_quadrature,
    check_completely_s,
    check_singular_certificate,
    completely_s_at,
    contains,
    direction_cone,
    domain_from_json,
    edge_normal,
    register_chart,
)
from .gallery import ExampleSystem, closed_form_density, make_example
from .operators import (
    BarReport,
    WeakResidual,
    apply_adjoint,
    apply_generator,
    apply_generator_batch,
    edge_residual,
    face_residual,
    integrate_density,
    normal_diffusion_divergence,
    normalize_density,
    verify_bar,
    weak_residual,
)
from .profiles import PiecewisePoly, RampProfile, cutoff
from .simulate import (
    EmpiricalMeasure,
    Trajectory,
    boundary_occupation,
    first_exit,
    occupation_measure,
    reflect,
    resolvent_sample,
    resolvent_sample_batch,
    simulate_path,
    submartingale_estimate,
)
from .solver import (
    GridMeasure,
    build_constraints,
    default_family,
    density_grid_measure,
    interior_grid,
    residual_report,
    solve_stationary,
)
from .testfunctions import (
    TestFunction,
    assemble_cover_family,
    boundary_bump,
    check_admissible,
    combine,
    interior_bump,
    singular_bump,
    singular_ramp,
)

__version__ = "0.1.0"

"""alexgeo: a desk-scale workbench for curvature-bounded metric constructions.

Closed-form distances for spherical joins, curvature-k cones, suspensions,
finite isometric quotients, lenses, and model balls; deterministic
epsilon-nets with metric-axiom and (1+3)-point curvature audits; minimax
invariant estimators (radius, diameter, soul, edge, spine) and the exact
boundary volume; and the comparison-geometry toolkit (Riccati profiles, convexity
probes, trace comparison, the hinge law) with a scripted reproduction catalogue.
"""

from .errors import (
    AlexgeoError,
    CapacityError,
    ConstructionError,
    DomainError,
    PreconditionError,
    SingularityError,
    UnsupportedConstructionError,
)
from .spaces import (
    Cone,
    Ellipsoid,
    Interval,
    Join,
    Lens,
    ModelBall,
    Quotient,
    SpaceDescriptor,
    Sphere,
    Suspension,
    boundary_distance,
    distance,
    double_join,
    points_equal,
    quotient_distance,
    track_clamping,
    validate_point,
)
from .actions import (
    GroupAction,
    cyclic_approximation,
    group_from_generators,
    validate_action,
)
from .nets import (
    FiniteNet,
    covering_check,
    ellipsoid_distance,
    epsilon_net,
    random_points,
    verify_curvature,
    verify_metric,
)
from .invariants import (
    boundary_volume,
    diameter,
    dual_pair_check,
    edge_set,
    invariant_report,
    radius,
    soul,
    spine_set,
)
from .comparison import (
    ComparisonModel,
    comparison_trace,
    convexity_check,
    fbar,
    hinge_comparison,
    model_lambda,
    model_phi,
    model_psi,
)
from .harness import (
    CATALOGUE,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    run_all,
    run_example,
    solve_ellipse_parameter,
)
from .serialize import space_from_json, space_to_json

__version__ = "0.1.0"

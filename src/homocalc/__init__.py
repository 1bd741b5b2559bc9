"""Functional calculus of positively homogeneous functions on vector lattices.

Sublinear and superlinear maps are carried by their sub/superdifferentials
(polytopes and balls); semicontinuous PH functions by inf/sup families of
such maps; the calculus lifts them to R^m and to step functions on [0, 1],
with saddle representations and an independent verification suite.
"""

from .convexsets import (
    Ball,
    VPolytope,
    coordinate_bound,
    feasible_point,
    project,
    support,
    support_batch,
)
from .documents import (
    element_from_json,
    element_to_json,
    function_from_json,
    map_from_json,
    map_to_json,
    saddle_from_json,
    saddle_to_json,
    set_from_json,
    set_to_json,
)
from .errors import (
    CalculusError,
    DimensionMismatch,
    EmptyFamily,
    EmptyIntersection,
    EnvelopeViolation,
    IndexOutOfRange,
    LatticeMismatch,
    NoConvergence,
    NonFiniteResult,
    NotOrdered,
    NumericalError,
    SaddleGap,
    SchemaError,
    UnattainedBound,
    UnknownBuiltin,
)
from .fcalc import (
    SaddleFamily,
    fc_saddle,
    fc_semicontinuous,
    fc_semicontinuous_detailed,
    fc_sublinear,
    fc_superlinear,
    saddle_build,
    saddle_eval,
)
from .homog import (
    FiniteFamily,
    PHFunction,
    RepresentationWarning,
    SublinearMap,
    SuperlinearMap,
    WitnessFamily,
    angle_superlinear_family,
    builtin,
    circumscribed_polygon_map,
    disk_map,
    domination_envelopes,
    eval_family,
    eval_family_detailed,
    sphere_grid,
)
from .lattice import (
    CoordinateHom,
    PointEvalHom,
    RmElement,
    StepFunction,
    common_refinement,
    embed_step_to_grid,
    hom_eval,
    join,
    meet,
)
from .verify import (
    CheckFailure,
    CheckReport,
    check_continuous_agreement,
    check_engine_vs_oracle,
    check_interchange,
    check_rep_independence,
    check_saddle,
    check_sublattice_invariance,
    default_suite,
    negative_controls,
    oracle_fc,
)

__version__ = "0.1.0"

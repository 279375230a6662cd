"""Conjunction analysis toolkit.

Reduces joint satellite state estimates to the encounter plane, computes
collision probability by a Gauss-Legendre strip integral (by the exact
noncentral chi-squared series for circular encounters), quantifies how
probability dilution degrades threshold-based detection, and provides
K-sigma uncertainty-ellipsoid screening whose missed-detection rate is
capped by construction, together with a harness for empirically testing
belief rules against that validity standard.
"""

from .detection import (
    DetectionCurve,
    FalseConfidenceReport,
    critical_displacement,
    default_threshold_grid,
    detection_curve,
    dilution_boundary,
    false_confidence_demo,
    proof_halfwidth,
)
from .ellipsoids import (
    Ellipsoid,
    build_ellipsoid,
    ellipsoids_intersect,
    min_distance,
    project_point,
)
from .errors import (
    ConjunctionAnalysisError,
    DegenerateEncounterError,
    InputValidationError,
    NumericalError,
    ParseError,
    UnsupportedPropositionError,
)
from .fileio import (
    Config,
    ConjunctionFile,
    load_config,
    parse_config,
    parse_conjunction,
)
from .geometry import (
    JointState,
    RelativeState,
    StandardizedEncounter,
    encounter_frame,
    encounter_projection,
    relative_covariance,
    standardize,
    standardized_encounter,
)
from .probability import (
    DilutionCurve,
    PcResult,
    dilution_curve,
    max_pc_head_on,
    ncx2_cdf,
    pc_circular,
    pc_contour,
)
from .propositions import (
    Ball,
    Complement,
    EllipsoidSet,
    FullSpace,
    HalfSpace,
    Proposition,
    contains_point,
    contains_region,
    intersects_region,
)
from .screening import (
    ScreeningDecision,
    joint_confidence,
    ksigma_confidence,
    screen_conjunction,
)
from .validity import (
    AdditiveGaussianRule,
    BeliefRule,
    ConfidenceRegionRule,
    ValidityReport,
    gaussian_region_rule,
    gaussian_sampling_model,
    region_belief,
    validity_check,
)

__version__ = "0.1.0"

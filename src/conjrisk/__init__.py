"""Conjunction analysis toolkit.

Reduces joint satellite state estimates to the encounter plane, computes
collision probability by a Gauss-Legendre strip integral (by the exact
noncentral chi-squared series for circular encounters), quantifies how
probability dilution degrades threshold-based detection, and provides
K-sigma uncertainty-ellipsoid screening whose missed-detection rate is
capped by construction, together with a harness for empirically testing
belief rules against that validity standard.

``import conjrisk`` imports no submodule: each public name below is
imported from its module on first access (PEP 562), so that a command
pays only for the modules it uses.
"""

from importlib import import_module

_MODULE_NAMES = {
    "detection": """DetectionCurve FalseConfidenceReport critical_displacement
        default_threshold_grid detection_curve false_confidence_demo
        proof_halfwidth""",
    "ellipsoids": "Ellipsoid build_ellipsoid min_distance project_point",
    "errors": """ConjunctionAnalysisError DegenerateEncounterError InputValidationError
        NumericalError ParseError UnsupportedPropositionError""",
    "fileio": "Config ConjunctionFile load_config parse_config parse_conjunction",
    "geometry": """JointState StandardizedEncounter encounter_frame relative_covariance
        standardized_encounter""",
    "ncx2": "ncx2_cdf",
    "probability": """DilutionCurve PcResult dilution_boundary dilution_curve
        max_pc_head_on pc_circular pc_contour""",
    "propositions": """Ball Complement EllipsoidSet FullSpace HalfSpace Proposition
        contains_point contains_region intersects_region""",
    "screening": "ScreeningDecision joint_confidence ksigma_confidence screen_conjunction",
    "validity": """AdditiveGaussianRule BeliefRule ConfidenceRegionRule ValidityReport
        gaussian_region_rule gaussian_sampling_model region_belief validity_check""",
}
#: Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _MODULE_NAMES.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here, so that a name replaced in its module is seen
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})

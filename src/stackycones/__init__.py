"""Exact computation of the movable cone of orbifold curve classes and the
orbifold pseudo-effective cone of a split toric Deligne-Mumford stack,
starting from its stacky fan, with an instance-wise verifier for the
generator description of the latter."""

from .boxes import (
    ACoeffs,
    BoxElement,
    EnumerationLimitError,
    IncompleteFanError,
    cone_parallelepiped_points,
    enumerate_box,
    minimal_cone_coeffs,
    q_reduce,
    twisted_sectors,
)
from .cones import Cone, intersect
from .fan import (
    AbelianGroupSpec,
    CheckResult,
    FanStructureError,
    NElement,
    RayData,
    StackyFan,
    ValidationReport,
    ray_data,
    validate,
)
from .fanfile import FanFileError, fan_from_dict, fan_to_dict, load_fan, save_fan
from .neron_severi import (
    AmbientSpaces,
    OrbCurveClass,
    OrbDivisorClass,
    build_spaces,
    curve_class_from_v_orb,
    curve_class_to_v_orb,
    eta_labels,
    lambda_orb,
    pair,
    ray_divisor_classes,
)
from .orbcones import (
    Analysis,
    OnePSClass,
    VerificationReport,
    XiSystem,
    build_xi,
    mov_cone,
    one_ps_class,
    peff_generators,
    restricted_functionals,
    sector_index,
    verify_duality,
)

__version__ = "0.1.0"

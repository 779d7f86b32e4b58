"""Exact computation of the movable cone of orbifold curve classes and the
orbifold pseudo-effective cone of a split toric Deligne-Mumford stack,
starting from its stacky fan, with an instance-wise verifier for the
generator description of the latter.

The names below are exported from their modules on first access (PEP 562),
so ``import stackycones.cli`` loads only the modules the CLI imports.
"""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "analysis": ("Analysis",),
    "boxes": ("BoxElement", "EnumerationLimitError", "IncompleteFanError",
              "cone_parallelepiped_points", "enumerate_box", "minimal_cone_coeffs",
              "q_reduce", "twisted_sectors"),
    "cones": ("Cone", "intersect"),
    "fan": ("AbelianGroupSpec", "CheckResult", "FanStructureError", "NElement",
            "RayData", "StackyFan", "ValidationReport", "ray_data", "validate"),
    "fanfile": ("FanFileError", "fan_from_dict", "fan_to_dict", "load_fan"),
    "neron_severi": ("AmbientSpaces", "build_spaces", "eta_labels", "lambda_orb",
                     "ray_divisor_classes"),
    "orbcones": ("OnePSClass", "VerificationReport", "XiSystem", "build_xi",
                 "mov_cone", "one_ps_class", "restricted_functionals",
                 "sector_index", "verify_duality"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value

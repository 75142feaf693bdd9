"""Boundary-data conversion for 2D incompressible flow measurements.

Converts between the two equivalent Cauchy-data formats on a boundary
patch: (velocity, normal derivative of velocity, pressure) and (velocity,
surface traction). Ships curve partitioning into rotated graph patches,
4th-order trace differentiation, the pointwise 4x4 conversion, analytic
manufactured-solution oracles, and a batch CLI.
"""

_MODULES = {  # public names by module; each loads with its module on first use (PEP 562)
    "dataio": "Dataset DatasetFormatError dataset_from_traces read_dataset write_csv "
              "write_dataset write_patch_set",
    "geometry": "MARGIN ORIENTATIONS BoundaryPatch FrameRotation ParametricCurve circle ellipse "
                "graph_curve graph_patch normal_at partition_curve polynomial_graph "
                "rotate_vector_trace theta uniform_grid",
    "manufactured": "FLOWS PRESSURES VISCOSITIES AnalyticFlow AnalyticScalarField CatalogTriple "
                    "analytic_trace_slopes builtin_catalog evaluate_traces rigid_motion",
    "traces": "ScalarTrace VectorTrace tangential_derivative",
    "transform": "CauchyDN CauchyStress GradientTrace assemble_system determinant dn_to_stress "
                 "solve_system stress_to_dn tolerance traction_from_gradient",
}
_WHERE = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = sorted(_WHERE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _WHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = globals()[name] = getattr(importlib.import_module(f".{_WHERE[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

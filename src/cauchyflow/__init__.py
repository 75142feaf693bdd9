"""Boundary-data conversion for 2D incompressible flow measurements.

Converts between the two equivalent Cauchy-data formats on a boundary
patch: (velocity, normal derivative of velocity, pressure) and (velocity,
surface traction). Ships curve partitioning into rotated graph patches,
4th-order trace differentiation, the pointwise 4x4 conversion, analytic
manufactured-solution oracles, and a batch CLI.
"""

from .dataio import (Dataset, DatasetFormatError, dataset_from_traces,
                     read_dataset, read_patch_set, write_csv, write_dataset,
                     write_patch_set)
from .geometry import (MARGIN, ORIENTATIONS, BoundaryPatch, FrameRotation,
                       ParametricCurve, circle, ellipse, graph_curve,
                       graph_patch, normal_at, partition_curve,
                       polynomial_graph, rotate_vector_trace, theta,
                       uniform_grid)
from .manufactured import (FLOWS, PRESSURES, VISCOSITIES, AnalyticFlow,
                           AnalyticScalarField, CatalogTriple,
                           analytic_trace_slopes, builtin_catalog,
                           evaluate_traces, rigid_motion)
from .traces import ScalarTrace, VectorTrace, tangential_derivative
from .transform import (CauchyDN, CauchyStress, GradientTrace,
                        assemble_system, determinant, dn_to_stress,
                        solve_system, stress_to_dn, tolerance,
                        traction_from_gradient)

__version__ = "0.1.0"

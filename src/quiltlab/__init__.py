"""quiltlab: explicit holomorphic quilted strips for the circle reduction of
CP^2, with numerical verification of their seam, boundary, holomorphy, and
area conditions."""

from .geometry import (InvalidPointError, DimensionMismatchError,
                       LagrangianId, MomentValue, ProjectivePoint,
                       correspondence_residual, correspondence_residual_parts,
                       fs_distance, homogeneous_density, lagrangian_residual,
                       moment_cp1_lift, moment_cp2, normalize,
                       pullback_density)
from .quadrature import (BudgetExceededError, QuadratureResult,
                         integrate_interval, integrate_line)
from .analysis import (BlaschkeData, BoundaryEvaluationError, DomainError,
                       InvalidBlaschkeDataError, PoissonSolution,
                       QuadratureSettings, UndefinedPointError,
                       UnreliableContourError, asymptotic_ratio,
                       blaschke_eval, boundary_modulus, f_and_derivative,
                       f_eval, g_eval, halfplane_to_strip, strip_to_halfplane,
                       winding_number)
from .catalog import (AnalyticMap, PatchRegion, Quilt, Regime, RegionKind,
                      all_floer_strips, catalog_ids, make_acw_quilt,
                      make_const_projection_quilt,
                      make_eight_bubble_sheet_switch, make_floer_strip_cp1,
                      make_floer_strip_cp2, make_maslov1_quilt, resolve,
                      sector_family, with_blaschke)
from .floer import (FloerComplex, FloerSide, build_complex,
                    differential_square, homology_dimension, strip_count)
from .verify import (MASLOV1_PROFILE, STRICT_PROFILE, ToleranceProfile,
                     VerificationReport, boundary_residual_profile,
                     cr_residual_profile, patch_area, seam_residual_profile,
                     sweep_family, verify_quilt)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""cdlab: finite-truncation models of coupled upper-triangular operator pairs
on the unit disk, and a batch verifier for their structural identities."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .kernels import (DiagonalKernel, bergman_kernel, diagonal_ratio,
                      evaluate_kernel, required_truncation, section_vector,
                      separator_kernel)
from .operators import (IntertwinerSpace, ModelOperator, SimilaritySplit,
                        UpperTriangularModel, apply_mobius, assemble_model,
                        fb2_membership, random_operator, random_unitary,
                        shift_from_kernel, similarity_split, sylvester_kernel)
from .geometry import (CurvatureField, DiskGrid, FrameField, MetricField,
                       covariant_derivative, curvature, curvature_isometry_check,
                       eigenframe, gram_metric, kernel_frame, polar_grid)
from .equivalence import (SWAP, BlockUnitary, Fb2Pair, build_unitary_from_x,
                          construct_fb2_pair, frame_kernel_matrix,
                          kernel_transform_check, main3_verifier,
                          sample_points, theta_intertwiner_check,
                          verify_mainlemma)
from .homogeneity import (MobiusMap, WitnessEntry,
                          homogeneity_condition_check,
                          mobius_block_identity_check, mobius_images,
                          mobius_sample_set, thm45_condition_check)
from .reporting import Condition, ConditionReport
from .scenarios import (CampaignResult, Scenario, list_checks, run_scenario)

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]

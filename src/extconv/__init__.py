"""Exact exterior-algebra projection maps and exterior-convexity checks.

The package projects shape matrices (one row per (k−1)-multiindex) onto
degree-k alternating forms, evaluates wedge powers both directly and through
order-s minor tables, materializes the induced linear maps and their
transpose, and runs sampled/LP-based checks for the exterior convexity
notions and their classical counterparts under the lift f ∘ projection.
"""

from .convexity import (LineCrossCheck, QuasiaffineFit, SamplerConfig, SupportSearch,
                        Verdict, check_ext_one_affine, check_ext_one_convex,
                        check_rank_one_convex, cross_check_lift, fit_quasiaffine,
                        lift, polyconvex_support_lp, replay_witness)
from .errors import DomainError
from .exterior import (KForm, hodge_star, norm_squared, scalar_product, wedge,
                       wedge_power)
from .functions import FormFunction
from .multiindex import (block_partitions, enumerate_multiindices, sign_interlace_append,
                         sign_of_string)
from .polyform import Poly, PolyKForm, d_classical, d_right, gradient, project_polynomial
from .projection import (MinorPowerMap, minor_power_map, project, pullback_support,
                         right_inverse, wedge_power_from_minors)
from .scalars import EXACT, FLOAT
from .shapespace import MinorTable, ShapeMatrix, adjugate, table_inner, tensor

__version__ = "0.1.0"

__all__ = [
    "DomainError", "EXACT", "FLOAT", "FormFunction", "KForm", "LineCrossCheck",
    "MinorPowerMap", "MinorTable", "Poly", "PolyKForm",
    "QuasiaffineFit", "SamplerConfig", "ShapeMatrix",
    "SupportSearch", "Verdict", "adjugate", "block_partitions",
    "check_ext_one_affine", "check_ext_one_convex", "check_rank_one_convex",
    "cross_check_lift", "d_classical", "d_right", "enumerate_multiindices",
    "fit_quasiaffine", "gradient", "hodge_star", "lift", "minor_power_map", "norm_squared",
    "polyconvex_support_lp", "project", "project_polynomial", "pullback_support",
    "replay_witness", "right_inverse", "scalar_product", "sign_interlace_append",
    "sign_of_string", "table_inner", "tensor", "wedge", "wedge_power",
    "wedge_power_from_minors",
]

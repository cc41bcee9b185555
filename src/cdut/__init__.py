"""Chamfer distance under translation.

Exact evaluation and nearest-neighbor indexes (``core``), the exact 1D
sweep and its l1/linf extension (``sweep1d``), multi-scale LSH
(``ann``), sampled-candidate and local-net approximations (``approx``,
``localnet``), the separation-gated decision procedure (``decision``),
hardness-gadget generators (``gadgets``), and brute-force oracles
(``oracle``).
"""

from .ann import ScaleLadder, build_ladder
from .approx import cdut_approx_v1, cdut_approx_v2
from .core import (
    L1,
    L2,
    LINF,
    ChamferReport,
    Metric,
    NearestIndex,
    PointSet,
    bbox_diameter,
    build_index,
    chamfer,
    chamfer_many,
    chamfer_translated,
    sample_anchors,
)
from .decision import (
    DecisionResult,
    MedianResult,
    SeparationCertificate,
    SeparationError,
    check_separation,
    decide_cdut,
    geometric_median,
    total_distance,
)
from .gadgets import GadgetInstance, combine_gadgets, gadget_a, gadget_b, gadget_width, ov_pair
from .localnet import LocalNetConfig, cdut_localnet
from .oracle import GridSearchSpec, oracle_cdut_1d, oracle_cdut_grid
from .sweep1d import cdut_exact_1d, cdut_exact_l1_linf, sweep_curve

__version__ = "0.1.0"

__all__ = [
    "ChamferReport",
    "DecisionResult",
    "GadgetInstance",
    "GridSearchSpec",
    "L1",
    "L2",
    "LINF",
    "LocalNetConfig",
    "MedianResult",
    "Metric",
    "NearestIndex",
    "PointSet",
    "ScaleLadder",
    "SeparationCertificate",
    "SeparationError",
    "bbox_diameter",
    "build_index",
    "build_ladder",
    "cdut_approx_v1",
    "cdut_approx_v2",
    "cdut_exact_1d",
    "cdut_exact_l1_linf",
    "cdut_localnet",
    "chamfer",
    "chamfer_many",
    "chamfer_translated",
    "check_separation",
    "combine_gadgets",
    "decide_cdut",
    "gadget_a",
    "gadget_b",
    "gadget_width",
    "geometric_median",
    "oracle_cdut_1d",
    "oracle_cdut_grid",
    "ov_pair",
    "sample_anchors",
    "sweep_curve",
    "total_distance",
]

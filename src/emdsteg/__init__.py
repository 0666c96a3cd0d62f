"""EMD-family steganography workbench.

Embedding/extraction for the EMD family of pixel-group schemes, image
quality and embedding-efficiency metrics, and exact computation of the
efficiency upper bound. Messages cross the package API as packed bytes plus
a bit length.
"""

from .bound import (
    BoundPoint,
    BoundQuery,
    BoundResult,
    CubicPoly,
    REFERENCE_BOUND_POLY,
    bound_counts,
    bound_point,
    cubic_eval,
    cubic_fit,
    distance_to_curve,
    frontier,
    sweep,
)
from .image import (
    GrayImage,
    bytes_to_symbols,
    load_pgm,
    save_pgm,
    symbols_to_bytes,
)
from .metrics import (
    DistortionProfile,
    MetricsReport,
    analyze_pair,
    mse,
    proposed_efficiency,
    psnr,
    relative_payload,
    standard_efficiency,
    theoretical_distortion,
)
from .rng import seeded_bytes
from .schemes import (
    ChangeConstraint,
    SchemeSpec,
    SCHEME_NAMES,
    embed_bytes,
    extract_bytes,
    make_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPoint",
    "BoundQuery",
    "BoundResult",
    "ChangeConstraint",
    "CubicPoly",
    "DistortionProfile",
    "GrayImage",
    "MetricsReport",
    "REFERENCE_BOUND_POLY",
    "SCHEME_NAMES",
    "SchemeSpec",
    "analyze_pair",
    "bound_counts",
    "bound_point",
    "bytes_to_symbols",
    "cubic_eval",
    "cubic_fit",
    "distance_to_curve",
    "embed_bytes",
    "extract_bytes",
    "frontier",
    "load_pgm",
    "make_scheme",
    "mse",
    "proposed_efficiency",
    "psnr",
    "relative_payload",
    "save_pgm",
    "seeded_bytes",
    "standard_efficiency",
    "sweep",
    "symbols_to_bytes",
    "theoretical_distortion",
]

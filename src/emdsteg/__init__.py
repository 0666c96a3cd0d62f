"""EMD-family steganography workbench.

Embedding/extraction for the EMD family of pixel-group schemes, image
quality and embedding-efficiency metrics, and exact computation of the
efficiency upper bound.
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
    quota_counts,
)
from .image import (
    GrayImage,
    bits_to_symbols,
    bytes_to_symbols,
    clamp_for_scheme,
    load_pgm,
    save_pgm,
    symbols_to_bits,
    symbols_to_bytes,
)
from .metrics import (
    DistortionProfile,
    MetricsReport,
    analyze_pair,
    capacity,
    mse,
    proposed_efficiency,
    psnr,
    relative_payload,
    standard_efficiency,
    theoretical_distortion,
)
from .rng import seeded_bits, seeded_bytes
from .schemes import (
    ChangeConstraint,
    SchemeSpec,
    SCHEME_NAMES,
    embed_bytes,
    embed_group,
    embed_message,
    extract_bits,
    extract_bytes,
    extract_message,
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
    "bits_to_symbols",
    "bound_counts",
    "bytes_to_symbols",
    "bound_point",
    "capacity",
    "clamp_for_scheme",
    "cubic_eval",
    "cubic_fit",
    "distance_to_curve",
    "embed_bytes",
    "embed_group",
    "embed_message",
    "extract_bits",
    "extract_bytes",
    "extract_message",
    "frontier",
    "load_pgm",
    "make_scheme",
    "mse",
    "proposed_efficiency",
    "psnr",
    "quota_counts",
    "relative_payload",
    "save_pgm",
    "seeded_bits",
    "seeded_bytes",
    "standard_efficiency",
    "symbols_to_bits",
    "symbols_to_bytes",
    "theoretical_distortion",
]

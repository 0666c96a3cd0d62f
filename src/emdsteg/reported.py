"""Reference comparison values quoted from the methods' literature.

Several EMD-family methods are compared in the benchmark output without
being implemented here (their embedding procedures live in external
references). Their published payload, efficiency and bound-distance
figures are kept verbatim as static rows, which the benchmark writes
tagged provenance="reported", so chart and table output can always show
the full field.

Values for implemented schemes are also kept; the benchmark emits them
next to the computed rows together with the per-row delta.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReportedValue:
    """One quoted table row: a payload point plus one headline value."""

    scheme_id: str
    method: str
    condition: str
    params: tuple[tuple[str, int], ...]
    alpha: float
    value: float


def _row(scheme_id, method, condition, params, alpha, value):
    return ReportedValue(scheme_id, method, condition, tuple(params), alpha, value)


# Standard efficiency E at the quoted payload (value column is E).
REPORTED_STANDARD_EFFICIENCY = (
    _row("catalan", "Catalan Base", "", (), 1.0, 0.125),
    _row("femd", "FEMD", "t=2", (("t", 2),), 1.0, 1.0),
    _row("mpemd", "MPEMD", "n=2", (("n", 2),), 1.0, 1.0),
    _row("msd", "MSD Base", "n=3", (("n", 3),), 1.15, 1.15),
    _row("kirsch", "Kirsch Base", "t=1, z=2", (), 1.33, 0.66),
    _row("mbe", "Multi Bit Encoding", "n=2, k=1", (("n", 2), ("k", 1)), 1.5, 1.0),
    _row("iemd", "IEMD", "", (), 1.5, 1.5),
    _row("gemd", "GEMD", "n=2", (("n", 2),), 1.5, 1.5),
    _row("egemd", "EGEMD", "n=4", (("n", 4),), 1.5, 1.5),
    _row("hemd", "HEMD", "n=3, w=3", (("n", 3), ("w", 3)), 1.58, 1.58),
    _row("emd2", "EMD-2", "n=2", (("n", 2),), 1.58, 1.58),
    _row("de", "DE", "k=2", (("k", 2),), 1.85, 1.85),
    _row("rgemd", "RGEMD", "n=3", (), 2.0, 0.85),
    _row("pva", "Pixel Value Adjustment", "t=2", (("t", 2),), 2.0, 1.0),
    _row("aemd", "AEMD", "m=4", (("m", 4),), 2.0, 1.0),
    _row("appm", "APPM", "B=16", (), 2.0, 1.33),
    _row("twofunc", "2-Function", "k1=2, k2=3", (), 2.5, 0.71),
    _row("pvd", "Pixel Value Differencing", "k_i", (), 2.5, 0.45),
    _row("eemdhw", "EEMDHW", "k=4", (), 4.0, 0.5),
)

# Proposed efficiency E' at the quoted payload (value column is E').
REPORTED_PROPOSED_EFFICIENCY = (
    _row("emd", "EMD", "n=3", (("n", 3),), 0.9357, 1.0107),
    _row("catalan", "Catalan Base", "", (), 1.0, 1.057),
    _row("mpemd", "MPEMD", "n=2", (("n", 2),), 1.0, 1.15),
    _row("femd", "FEMD", "t=2", (("t", 2),), 1.0, 1.6329),
    _row("msd", "MSD Base", "n=3", (("n", 3),), 1.15, 1.77),
    _row("de", "DE", "k=1", (("k", 1),), 1.16, 1.83),
    _row("gemd", "GEMD", "n=3", (("n", 3),), 1.33, 1.804),
    _row("mbe", "Multi Bit Encoding", "n=3, k=1", (("n", 3), ("k", 1)), 1.33, 1.751),
    _row("iemd", "IEMD", "", (), 1.5, 1.897845),
    _row("appm", "APPM", "B=9", (), 1.5, 1.9),
    _row("pvd", "Pixel Value Differencing", "", (), 1.53, 0.7964),
    _row("emd2", "EMD-2", "n=2", (("n", 2),), 1.58, 1.94),
    _row("hemd", "HEMD", "n=3, w=3", (("n", 3), ("w", 3)), 1.58, 1.94),
    _row("egemd", "EGEMD", "n=3", (("n", 3),), 1.67, 1.587),
    _row("kirsch", "Kirsch Base", "", (), 1.84, 1.2792),
    _row("pva", "Pixel Value Adjustment", "t=2", (("t", 2),), 2.0, 0.5914),
    _row("rgemd", "RGEMD", "n=3", (), 2.0, 1.35),
    _row("aemd", "AEMD", "", (), 2.037, 1.6278),
    _row("twofunc", "2-Function", "k1=2, k2=3", (), 2.5, 1.05),
    _row("eemdhw", "EEMDHW", "k=2", (), 3.0, 1.11),
)

# Distance from the reference bound curve (value column is the distance).
REPORTED_BOUND_DISTANCE = (
    _row("emd", "EMD", "", (), 0.9357, 0.3595),
    _row("femd", "FEMD", "", (), 1.0, 0.5871),
    _row("mpemd", "MPEMD", "", (), 1.0, 1.0653),
    _row("catalan", "Catalan Base", "", (), 1.0, 1.1621),
    _row("msd", "MSD Base", "", (), 1.15, 0.5728),
    _row("de", "DE", "", (), 1.16, 0.5149),
    _row("gemd", "GEMD", "", (), 1.33, 0.5708),
    _row("mbe", "Multi Bit Encoding", "", (), 1.33, 0.6234),
    _row("iemd", "IEMD", "", (), 1.5, 0.4362),
    _row("appm", "APPM", "", (), 1.5, 0.4258),
    _row("pvd", "Pixel Value Differencing", "", (), 1.53, 1.5275),
    _row("emd2", "EMD-2", "", (), 1.58, 0.3595),
    _row("hemd", "HEMD", "", (), 1.59, 0.3492),
    _row("egemd", "EGEMD", "", (), 1.67, 0.67121),
    _row("kirsch", "Kirsch Base", "", (), 1.849, 0.8758),
    _row("rgemd", "RGEMD", "", (), 2.0, 0.7096),
    _row("pva", "Pixel Value Adjustment", "", (), 2.0, 1.4687),
    _row("aemd", "AEMD", "", (), 2.037, 0.6385),
    _row("twofunc", "2-Function", "", (), 2.5, 0.2354),
    _row("eemdhw", "EEMDHW", "", (), 3.0, 0.3395),
)

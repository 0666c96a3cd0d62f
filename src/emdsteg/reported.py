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
    condition: str
    params: tuple[tuple[str, int], ...]
    alpha: float
    value: float


# Standard efficiency E at the quoted payload (value column is E).
REPORTED_STANDARD_EFFICIENCY = (
    ReportedValue("catalan", "", (), 1.0, 0.125),
    ReportedValue("femd", "t=2", (("t", 2),), 1.0, 1.0),
    ReportedValue("mpemd", "n=2", (("n", 2),), 1.0, 1.0),
    ReportedValue("msd", "n=3", (("n", 3),), 1.15, 1.15),
    ReportedValue("kirsch", "t=1, z=2", (), 1.33, 0.66),
    ReportedValue("mbe", "n=2, k=1", (("n", 2), ("k", 1)), 1.5, 1.0),
    ReportedValue("iemd", "", (), 1.5, 1.5),
    ReportedValue("gemd", "n=2", (("n", 2),), 1.5, 1.5),
    ReportedValue("egemd", "n=4", (("n", 4),), 1.5, 1.5),
    ReportedValue("hemd", "n=3, w=3", (("n", 3), ("w", 3)), 1.58, 1.58),
    ReportedValue("emd2", "n=2", (("n", 2),), 1.58, 1.58),
    ReportedValue("de", "k=2", (("k", 2),), 1.85, 1.85),
    ReportedValue("rgemd", "n=3", (), 2.0, 0.85),
    ReportedValue("pva", "t=2", (("t", 2),), 2.0, 1.0),
    ReportedValue("aemd", "m=4", (("m", 4),), 2.0, 1.0),
    ReportedValue("appm", "B=16", (), 2.0, 1.33),
    ReportedValue("twofunc", "k1=2, k2=3", (), 2.5, 0.71),
    ReportedValue("pvd", "k_i", (), 2.5, 0.45),
    ReportedValue("eemdhw", "k=4", (), 4.0, 0.5),
)

# Proposed efficiency E' at the quoted payload (value column is E').
REPORTED_PROPOSED_EFFICIENCY = (
    ReportedValue("emd", "n=3", (("n", 3),), 0.9357, 1.0107),
    ReportedValue("catalan", "", (), 1.0, 1.057),
    ReportedValue("mpemd", "n=2", (("n", 2),), 1.0, 1.15),
    ReportedValue("femd", "t=2", (("t", 2),), 1.0, 1.6329),
    ReportedValue("msd", "n=3", (("n", 3),), 1.15, 1.77),
    ReportedValue("de", "k=1", (("k", 1),), 1.16, 1.83),
    ReportedValue("gemd", "n=3", (("n", 3),), 1.33, 1.804),
    ReportedValue("mbe", "n=3, k=1", (("n", 3), ("k", 1)), 1.33, 1.751),
    ReportedValue("iemd", "", (), 1.5, 1.897845),
    ReportedValue("appm", "B=9", (), 1.5, 1.9),
    ReportedValue("pvd", "", (), 1.53, 0.7964),
    ReportedValue("emd2", "n=2", (("n", 2),), 1.58, 1.94),
    ReportedValue("hemd", "n=3, w=3", (("n", 3), ("w", 3)), 1.58, 1.94),
    ReportedValue("egemd", "n=3", (("n", 3),), 1.67, 1.587),
    ReportedValue("kirsch", "", (), 1.84, 1.2792),
    ReportedValue("pva", "t=2", (("t", 2),), 2.0, 0.5914),
    ReportedValue("rgemd", "n=3", (), 2.0, 1.35),
    ReportedValue("aemd", "", (), 2.037, 1.6278),
    ReportedValue("twofunc", "k1=2, k2=3", (), 2.5, 1.05),
    ReportedValue("eemdhw", "k=2", (), 3.0, 1.11),
)

# Distance from the reference bound curve (value column is the distance).
REPORTED_BOUND_DISTANCE = (
    ReportedValue("emd", "", (), 0.9357, 0.3595),
    ReportedValue("femd", "", (), 1.0, 0.5871),
    ReportedValue("mpemd", "", (), 1.0, 1.0653),
    ReportedValue("catalan", "", (), 1.0, 1.1621),
    ReportedValue("msd", "", (), 1.15, 0.5728),
    ReportedValue("de", "", (), 1.16, 0.5149),
    ReportedValue("gemd", "", (), 1.33, 0.5708),
    ReportedValue("mbe", "", (), 1.33, 0.6234),
    ReportedValue("iemd", "", (), 1.5, 0.4362),
    ReportedValue("appm", "", (), 1.5, 0.4258),
    ReportedValue("pvd", "", (), 1.53, 1.5275),
    ReportedValue("emd2", "", (), 1.58, 0.3595),
    ReportedValue("hemd", "", (), 1.59, 0.3492),
    ReportedValue("egemd", "", (), 1.67, 0.67121),
    ReportedValue("kirsch", "", (), 1.849, 0.8758),
    ReportedValue("rgemd", "", (), 2.0, 0.7096),
    ReportedValue("pva", "", (), 2.0, 1.4687),
    ReportedValue("aemd", "", (), 2.037, 0.6385),
    ReportedValue("twofunc", "", (), 2.5, 0.2354),
    ReportedValue("eemdhw", "", (), 3.0, 0.3395),
)

"""Registry of EMD-family embedding schemes.

Every scheme reads a hidden symbol out of a pixel group with a weighted sum
modulo the symbol count M. Embedding adds the change vector that a
residue-indexed table holds for r = (target - current) mod M; one numpy
kernel embeds and extracts every group of an image this way. Each table
comes from an exact minimal-distortion search over the scheme's change
budget, a dynamic program over the group's pixels; for EMD and PVA that
is the vector their published procedure applies. Only IEMD embeds with a
second table, built from its case order. The two split constructions
embed each part of the symbol with a sub-scheme's table.

Feasibility (every residue reachable within the change budget) is checked
once at construction, so embedding never fails at run time.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .image import (
    GrayImage,
    bits_to_symbols,
    bytes_to_symbols,
    clamped_pixels,
    symbol_bit_width,
    symbols_to_bits,
    symbols_to_bytes,
)

# The most bytes a table search may hold, as _check_search_cost counts them.
# The search is exact at any size, but this bound fixes which schemes build.
_MAX_SEARCH_BYTES = 2**27
# Candidates per scatter of the table search; bounds its working memory.
_SEARCH_CHUNK = 2**16
# Rows per slice when a table is converted to tuples.
_ROW_SLICE = 4096


class SchemeError(ValueError):
    """A scheme that cannot be built, or a message or group it cannot embed."""


@dataclass(frozen=True)
class ChangeConstraint:
    """Change budget for one pixel group.

    per_pixel_max bounds |delta_i| and l1_radius (when set) bounds
    sum(|delta_i|), so a radius r also allows at most r nonzero deltas. The
    budget also sets the order of the table search: a budget with an L1
    radius minimizes sum(|delta_i|) first, any other squared change first.
    """

    per_pixel_max: int
    l1_radius: int | None = field(default=None, kw_only=True)


@dataclass(frozen=True)
class SchemeSpec:
    """A fully-resolved scheme: weights, modulus, budget and tables.

    solver_array / embed_array are read-only (M, n) arrays in the search's
    delta dtype whose row r is the change vector for the residue
    r = (target - current) mod M: solver_array holds the distortion-optimal
    vector in the order its budget sets, embed_array the vector embedding
    applies (IEMD's case order, else the solver's, as the same object).
    Both are None for the split constructions, which embed each part of the
    symbol through sub_specs. solver_table / embed_table are the same
    tables as tuples of int tuples, built on first access.
    """

    id: str
    base: tuple[int, ...]
    modulus: int
    constraint: ChangeConstraint
    key: int = 0
    params: dict = field(default_factory=dict, compare=False)
    solver_array: np.ndarray | None = field(default=None, compare=False, repr=False)
    embed_array: np.ndarray | None = field(default=None, compare=False, repr=False)
    sub_specs: tuple["SchemeSpec", ...] = field(default=(), compare=False, repr=False)

    @property
    def n(self) -> int:
        """Group size: one pixel per weight."""
        return len(self.base)

    @property
    def payload_bits_exact(self) -> float:
        return math.log2(self.modulus)

    @property
    def payload_bits_operational(self) -> int:
        return symbol_bit_width(self.modulus)

    @property
    def rho(self) -> int:
        """Maximum change units per group: the L1 budget when set, else z*n."""
        c = self.constraint
        if c.l1_radius is not None:
            return c.l1_radius
        return c.per_pixel_max * self.n

    @property
    def is_composite(self) -> bool:
        return bool(self.sub_specs)

    @functools.cached_property
    def solver_table(self) -> tuple[tuple[int, ...], ...] | None:
        """solver_array as a tuple of int tuples, built on first access."""
        return _rows(self.solver_array)

    @functools.cached_property
    def embed_table(self) -> tuple[tuple[int, ...], ...] | None:
        """embed_array as a tuple of int tuples; solver_table itself when the arrays are one."""
        if self.embed_array is self.solver_array:
            return self.solver_table
        return _rows(self.embed_array)


def _rows(table: np.ndarray | None) -> tuple[tuple[int, ...], ...] | None:
    """The rows of an (M, n) table as int tuples.

    Converted in slices of _ROW_SLICE rows, so the temporary lists stay
    small next to the tuples.
    """
    if table is None:
        return None
    return tuple(
        row
        for start in range(0, len(table), _ROW_SLICE)
        for row in zip(*table[start : start + _ROW_SLICE].T.tolist())
    )


def _delta_type(z: int) -> type:
    """The narrowest signed dtype that holds every change in [-z, z]."""
    return np.int8 if z < 2**7 else np.int16 if z < 2**15 else np.int32


def _int_type(limit: int, dtype: np.dtype) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds limit, promoted with dtype."""
    narrow = np.int16 if limit < 2**15 else np.int32 if limit < 2**31 else np.int64
    return np.promote_types(narrow, dtype)


def _search_box(n: int, constraint: ChangeConstraint) -> tuple[int, int]:
    """The budget's largest change per pixel and most changed pixels: an L1 radius cuts both."""
    z, radius = constraint.per_pixel_max, constraint.l1_radius
    if radius is None:
        return z, n
    return min(z, radius), min(n, radius)


def _rank_top(z: int, n: int) -> int:
    """A multiple of D = 2z + 1 above the rank of every vector of at most n changes
    in [-z, z]: D times each cost's top plus one (L1 alone for n = 1)."""
    if n == 1:
        return (2 * z + 1) * (z + 1)
    return (2 * z + 1) * (n * z + 1) * (n * z * z + 1)


def _check_search_cost(n: int, modulus: int, constraint: ChangeConstraint) -> int:
    """The most bytes the table search of n columns mod modulus holds.

    Raises SchemeError when they pass _MAX_SEARCH_BYTES, or when a candidate
    rank, below 2 * _rank_top, would not fit int64. For M residues, D = 2z + 1
    values of the search box, R-byte ranks (2 for unit changes on up to 72
    pixels) and d-byte deltas for the box's z, t-byte for the budget's (1 for
    z <= 127), the search and the read-back hold at most:
    - n choice arrays of M * d, each with 320 bytes of Python objects, and the table;
    - per state, 4 ranks (best, keys, picked, a change) and 8 of 8 bytes: the
      reached states, the next ones and their mask, the read-back's states,
      step, reduction, row L1, delta and its absolute value;
    - per value, 8 of 8 bytes: values, moves, their shift, ranks, _ranks' temporaries;
    - one candidate chunk of max(_SEARCH_CHUNK, D) intp states and ranks.
    """
    z, k = _search_box(n, constraint)
    values = 2 * z + 1
    # _rank_top cubes z, slowly for a huge one; any z >= 2^63 passes both limits anyway
    top = _rank_top(z, k) if z < 2**63 else 2**63
    rank = _int_type(2 * top, np.int16).itemsize
    delta = np.dtype(_delta_type(z)).itemsize
    table = np.dtype(_delta_type(constraint.per_pixel_max)).itemsize
    cost = n * (modulus * (delta + table) + 320) + modulus * (4 * rank + 8 * 8) + values * 8 * 8
    cost += max(_SEARCH_CHUNK, values) * (8 + rank)
    if cost > _MAX_SEARCH_BYTES:
        # log2 floored to a tenth: the decimal int may be too long to print
        raise SchemeError(
            f"table search needs at least 2^{math.floor(10 * math.log2(cost)) / 10} bytes, "
            f"over the limit of 2^{_MAX_SEARCH_BYTES.bit_length() - 1}"
        )
    if 2 * top >= 2**63:
        raise SchemeError("table search ranks would pass the limit of 2^63")
    return cost


def _ranks(z: int, n: int, l1_first: bool) -> tuple[np.ndarray, int]:
    """Rank D * key + i of changing one pixel by i - z, for each of D = 2z + 1 values.

    key folds the change's (primary, secondary) cost, (L1, L2) when l1_first
    else (L2, L1), into one integer, so keys add up along a vector. Also
    returns _rank_top(z, n): a candidate adds one column's rank to a reached
    key, both below it, so the ranks take the narrowest dtype that holds 2 * top.
    """
    l1 = np.abs(np.arange(-z, z + 1))
    l2 = l1 * l1
    if n == 1:
        # one changed pixel ranks by its size in either order
        primary, secondary, fold = l1, 0, 1
    elif l1_first:
        primary, secondary, fold = l1, l2, n * z * z + 1
    else:
        primary, secondary, fold = l2, l1, n * z + 1
    count = len(l1)
    top = _rank_top(z, n)
    ranks = count * (primary * fold + secondary) + np.arange(count)
    return ranks.astype(_int_type(2 * top, np.int16)), top


def _search_column(reached, keys, moves, ranks, best, unreached: int) -> None:
    """Fill best with the best rank of every state after one more column.

    reached holds the states the columns searched so far reach and keys
    their ranks without the choice; state s plus moves[i], which lies in
    [-len(best), 0), is the state after changing this column by value i,
    so a negative sum indexes from the end. States no candidate reaches
    read unreached.
    """
    best.fill(unreached)
    rows = max(1, _SEARCH_CHUNK // len(ranks))
    for start in range(0, len(reached), rows):
        part = slice(start, start + rows)
        np.minimum.at(
            best,
            (reached[part, None] + moves).ravel(),
            (keys[part, None] + ranks).ravel(),
        )


def _optimal_delta_table(
    n: int,
    base: Sequence[int],
    modulus: int,
    constraint: ChangeConstraint,
) -> np.ndarray | None:
    """Find the best change vector of every residue, one column at a time.

    Returns the read-only (M, n) table in the delta dtype of the per-pixel
    budget, or None when some residue is unreachable. Vectors rank by
    squared then absolute change, or by absolute then squared change when
    the budget has an L1 radius, and then by lexicographic order, which
    makes the table deterministic; _check_search_cost lists its arrays. The
    search covers _search_box and drops ranks at the top of _ranks, which no
    vector of the budget reaches; the radius is checked on the read-back's
    row sums: a residue's L1-first optimum lies within it if any vector does.

    An exact dynamic program over the columns from the last to the first.
    Each state, a residue, keeps the best rank D * key + i of the columns
    searched so far, so one np.minimum.at ranks candidates by cost and breaks
    a tie toward the smallest change i - z in the current column; as later
    columns were ranked first, that is lexicographic order. Only reached
    states are extended. Each column's choices hold the signed change i - z
    of every state, in the delta dtype of the search box's z, and the table
    is read back with one intp-indexed gather per column: the change is the
    table's column, and the state steps back by change * weight mod M.
    """
    radius = constraint.l1_radius
    z, k = _search_box(n, constraint)
    values = np.arange(-z, z + 1)
    count = len(values)
    ranks, unreached = _ranks(z, k, radius is not None)
    # right of the last column only residue 0 is reached, at rank 0
    reached = np.arange(1)
    keys = np.zeros(1, dtype=ranks.dtype)
    best = np.empty(modulus, dtype=ranks.dtype)
    choices = []
    for weight in reversed(base):
        # weights mod M keep the int64 shifts far from overflow: z * M < 2**41
        step = weight % modulus
        moves = values * step % modulus
        _search_column(reached, keys, moves - modulus, ranks, best, unreached)
        reached = np.flatnonzero(best < unreached)
        picked = best[reached]
        keys = picked // count
        keys *= count
        picked -= keys
        choice = np.zeros(modulus, dtype=_delta_type(z))
        choice[reached] = picked - z
        choices.append((choice, np.intp(step)))
    if len(reached) < modulus:
        return None
    del best, reached, keys, picked  # free the search's arrays for the table's
    states = np.arange(modulus)
    l1 = np.zeros(modulus, dtype=np.intp) if radius is not None else None
    table = np.empty((modulus, n), dtype=_delta_type(constraint.per_pixel_max))
    for column, (choice, step) in enumerate(reversed(choices)):
        delta = choice[states]
        table[:, column] = delta
        if radius is not None:
            l1 += np.abs(delta)
        # the intp step makes the product intp: |delta * step| <= z * M < 2**63
        states -= delta * step
        _reduce(states, modulus)
    if radius is not None and (l1 > radius).any():
        return None
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# table kernel: the one embed/extract implementation


def _parts(spec: SchemeSpec) -> tuple[tuple[SchemeSpec, int, int], ...]:
    """(sub-spec, first pixel, place value) of each part of a split scheme,
    lowest place first.

    The symbol is the sum of part symbols times their place values: the
    paired-EMD split reads high * sub-M + low (the low part on the second
    pixels), the two-part GEMD split carry * 2^(n1+1) + remainder. Each
    place is the product of the moduli of the parts before it.
    """
    if spec.id == "twoemd":
        (sub,) = spec.sub_specs
        return ((sub, sub.n, 1), (sub, 0, sub.modulus))
    low, high = spec.sub_specs
    return ((low, 0, 1), (high, low.n, low.modulus))


def _weighted_sums(spec: SchemeSpec, groups: np.ndarray) -> np.ndarray:
    """key + sum(pixel * weight) of every group of a plain scheme, not yet reduced.

    Built one column at a time in the accumulator dtype: the narrowest that
    holds sum(pixel * weight) + key and M for 8-bit pixels, and never
    narrower than the groups' own dtype.
    """
    limit = max(255 * sum(map(abs, spec.base)) + abs(spec.key), spec.modulus)
    acc = _int_type(limit, groups.dtype).type
    # acc is promoted with the groups' dtype, so each product is already acc
    (first, weight), *rest = zip(groups.T, spec.base)
    sums = first * acc(weight)
    for column, weight in rest:
        sums += column * acc(weight)
    if spec.key:
        sums += acc(spec.key)
    return sums


def _reduce(values: np.ndarray, modulus: int) -> None:
    """values %= modulus in place: a mask for a power of two, otherwise
    values - floor(values / modulus) * modulus.

    Equal to numpy's % for a signed dtype that holds modulus; two's
    complement makes the mask the floor remainder of negative values too.
    numpy's remainder loop is several times slower on negative values than
    its floor division by a scalar, which is slower again than the mask.
    """
    if modulus & (modulus - 1) == 0:
        values &= modulus - 1
        return
    quotients = values // modulus
    quotients *= modulus
    values -= quotients


def _extract_groups(spec: SchemeSpec, groups: np.ndarray) -> np.ndarray:
    if spec.is_composite:
        # each part widens to a dtype that holds the composite symbol before
        # its place multiply; the parts sum in place into the first
        total = None
        for sub, first, place in _parts(spec):
            values = _extract_groups(sub, groups[:, first : first + sub.n])
            values = values.astype(_int_type(spec.modulus, values.dtype), copy=False)
            values *= place
            total = values if total is None else np.add(total, values, out=total)
        return total
    values = _weighted_sums(spec, groups)
    _reduce(values, spec.modulus)
    return values


def _embed_groups(spec: SchemeSpec, groups: np.ndarray, symbols: np.ndarray) -> None:
    """Add each group's change vector for its symbol to groups, in place."""
    if spec.is_composite:
        # each place is the product of the moduli below it, so lowest place
        # first a part's digit is one divmod's remainder and the top part's
        # the quotient left; a digit is below its part's M, which the part's
        # sub-kernel accumulator holds
        *lower, (top, top_first, _) = _parts(spec)
        for sub, first, _ in lower:
            symbols, digits = np.divmod(symbols, sub.modulus)
            _embed_groups(sub, groups[:, first : first + sub.n], digits)
        _embed_groups(top, groups[:, top_first : top_first + top.n], symbols)
        return
    # r = (s - key - sum) mod M, with one remainder in the accumulator dtype;
    # symbols < M fit it, and a same-dtype subtract avoids numpy's mixed loops
    residues = _weighted_sums(spec, groups)
    np.subtract(symbols.astype(residues.dtype), residues, out=residues)
    _reduce(residues, spec.modulus)
    table = spec.embed_array
    if groups.dtype == np.uint8:
        # uint8 groups are clamped (z <= 127, so the table is int8): the
        # two's complement view adds each change mod 256, which is exact
        # because a clamped pixel plus its change stays in 0..255
        table = table.view(np.uint8)
    changes = np.take(table, residues, axis=0)
    if groups.flags.c_contiguous:
        groups += changes
    else:
        # a split part's column slice: one 1-D add per column is several
        # times faster than numpy's strided 2-D add
        for column, change in zip(groups.T, changes.T):
            column += change


def embed_group(spec: SchemeSpec, x: Sequence[int], s: int) -> tuple[int, ...]:
    """Embed one symbol into one pre-clamped group: a one-row _embed_groups."""
    if len(x) != spec.n:
        raise SchemeError(
            f"group has {len(x)} pixels, {spec.id} expects {spec.n}"
        )
    if not 0 <= s < spec.modulus:
        raise SchemeError(f"symbol {s} outside [0, {spec.modulus})")
    row = np.array(x, dtype=np.int64).reshape(1, spec.n)
    _embed_groups(spec, row, np.array([s]))
    return tuple(row[0].tolist())


# ---------------------------------------------------------------------------
# scheme construction


def _finalize(
    *,
    id: str,
    base: Iterable[int],
    modulus: Callable[[], int],
    constraint: ChangeConstraint,
    n: int | None = None,
    key: int = 0,
    params: dict,
    sub_specs: tuple[SchemeSpec, ...] = (),
    embed_array: np.ndarray | None = None,
) -> SchemeSpec:
    """Build a spec from its weights and modulus, both lazy. A plain spec's n columns get
    a solver table, which it embeds with unless embed_array is given, once
    _check_search_cost admits them: first mod 1, as the cost only grows with the
    modulus, which may be too large to make, then mod the modulus itself."""
    table = None
    if sub_specs:
        modulus = modulus()
    else:
        _check_search_cost(n, 1, constraint)
        modulus = modulus()
        _check_search_cost(n, modulus, constraint)
        base = tuple(base)
        table = _optimal_delta_table(n, base, modulus, constraint)
        if table is None:
            raise SchemeError(f"{id}: some residue mod {modulus} is unreachable within the budget")
    return SchemeSpec(
        id=id,
        base=base,
        modulus=modulus,
        constraint=constraint,
        key=key,
        params=params,
        solver_array=table,
        embed_array=table if embed_array is None else embed_array,
        sub_specs=sub_specs,
    )


def _require_int(name: str, value, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemeError(f"{name}={value} below minimum {minimum}")
    return value


def _make_emd(n: int) -> SchemeSpec:
    """Weights 1..n mod 2n+1; one pixel moves by one unit at most."""
    n = _require_int("n", n, 2)
    return _finalize(
        id="emd",
        n=n,
        base=range(1, n + 1),
        modulus=lambda: 2 * n + 1,
        constraint=ChangeConstraint(1, l1_radius=1),
        params={"n": n},
    )


# IEMD's change vectors in the method's case order; each reaches its own residue
_IEMD_CASES = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1))


def _make_iemd() -> SchemeSpec:
    """Pixel pair with weights (1, 3) mod 8; up to two unit changes.

    Embedding applies the case that reaches the residue, which differs from
    the solver's tie-break only at residue 4: (1, 1) instead of (-1, -1).
    """
    table = np.empty((8, 2), dtype=_delta_type(1))
    for case in _IEMD_CASES:
        table[(case[0] + 3 * case[1]) % 8] = case
    table.flags.writeable = False
    return _finalize(
        id="iemd",
        n=2,
        base=(1, 3),
        modulus=lambda: 8,
        constraint=ChangeConstraint(1),
        params={},
        embed_array=table,
    )


def _make_pva(t: int) -> SchemeSpec:
    """Single pixel mod t^2, shifted by at most floor(t^2/2)."""
    t = _require_int("t", t)
    if not 2 <= t <= 4:
        raise SchemeError(f"t={t} outside [2, 4]")
    z = (t * t) // 2
    return _finalize(
        id="pva",
        n=1,
        base=(1,),
        modulus=lambda: t * t,
        constraint=ChangeConstraint(z),
        params={"t": t},
    )


def _make_femd(t: int) -> SchemeSpec:
    """Pixel pair with weights (t-1, t) mod t^2, changes up to floor(t/2)."""
    t = _require_int("t", t, 2)
    return _finalize(
        id="femd",
        n=2,
        base=(t - 1, t),
        modulus=lambda: t * t,
        constraint=ChangeConstraint(t // 2),
        params={"t": t},
    )


def _make_de(k: int) -> SchemeSpec:
    """Pixel pair with weights (2k+1, 1); candidates live in the L1 ball of radius k."""
    k = _require_int("k", k, 1)
    return _finalize(
        id="de",
        n=2,
        base=(2 * k + 1, 1),
        modulus=lambda: 2 * k * k + 2 * k + 1,
        constraint=ChangeConstraint(k, l1_radius=k),
        params={"k": k},
    )


def _make_mpemd(n: int, key: int = 0) -> SchemeSpec:
    """EMD weights mod 2n with an additive integer key in [0, 2n)."""
    n = _require_int("n", n, 2)
    key = _require_int("key", key, 0)
    if key >= 2 * n:
        raise SchemeError(f"key={key} outside [0, {2 * n})")
    return _finalize(
        id="mpemd",
        n=n,
        base=range(1, n + 1),
        modulus=lambda: 2 * n,
        constraint=ChangeConstraint(1, l1_radius=1),
        key=key,
        params={"n": n, "key": key},
    )


def _emd2_weights(n: int) -> Iterator[int]:
    yield from (1, 3) if n == 2 else (1, 2)
    yield from (6 + 5 * i for i in range(n - 2))


def _make_emd2(n: int) -> SchemeSpec:
    """Graded weights mod 2w+1 with w = 4 (pairs) or 8+5(n-3); two changes max."""
    n = _require_int("n", n, 2)
    w = 4 if n == 2 else 8 + 5 * (n - 3)
    return _finalize(
        id="emd2",
        n=n,
        base=_emd2_weights(n),
        modulus=lambda: 2 * w + 1,
        constraint=ChangeConstraint(1, l1_radius=2),
        params={"n": n},
    )


def _make_twoemd(n: int) -> SchemeSpec:
    """Two EMD halves of n pixels each; symbol space (2n+1)^2."""
    n = _require_int("n", n, 2)
    sub = _make_emd(n)
    m = sub.modulus
    return _finalize(
        id="twoemd",
        base=sub.base + sub.base,
        modulus=lambda: m * m,
        constraint=ChangeConstraint(1, l1_radius=2),
        params={"n": n},
        sub_specs=(sub,),
    )


def _make_gemd(n: int) -> SchemeSpec:
    """Weights 2^i - 1 mod 2^(n+1); every pixel may move by one unit."""
    # n = 1 has 3 change vectors for 4 residues
    n = _require_int("n", n, 2)
    return _finalize(
        id="gemd",
        n=n,
        base=((1 << i) - 1 for i in range(1, n + 1)),
        modulus=lambda: 1 << (n + 1),
        constraint=ChangeConstraint(1),
        params={"n": n},
    )


def _make_egemd(n: int, n1: int | None = None) -> SchemeSpec:
    """GEMD on two subgroups carrying n+2 bits; split defaults to floor(n/2).
    Each subgroup is a GEMD group of at least two pixels."""
    n = _require_int("n", n, 4)
    if n1 is None:
        n1 = n // 2
    n1 = _require_int("n1", n1)
    if not 2 <= n1 <= n - 2:
        raise SchemeError(f"n1={n1} outside [2, {n - 2}]")
    low = _make_gemd(n1)
    high = _make_gemd(n - n1)
    return _finalize(
        id="egemd",
        base=low.base + high.base,
        modulus=lambda: 1 << (n + 2),
        constraint=ChangeConstraint(1),
        params={"n": n, "n1": n1},
        sub_specs=(low, high),
    )


def _mbe_weights(n: int, k: int) -> Iterator[int]:
    weight = 1
    for _ in range(n):
        yield weight
        weight = (weight << k) + 1


def _make_mbe(n: int, k: int) -> SchemeSpec:
    """Chained weights b_i = 2^k b_(i-1) + 1 mod 2^(nk+1); changes up to 2^k - 1."""
    n = _require_int("n", n, 2)
    k = _require_int("k", k, 1)
    # the search holds 64 bytes per value of [-z, z], so a z of as many bits
    # as the limit already passes it: price a larger k there, before its z exists
    _check_search_cost(n, 1, ChangeConstraint((1 << min(k, _MAX_SEARCH_BYTES.bit_length())) - 1))
    return _finalize(
        id="mbe",
        n=n,
        base=_mbe_weights(n, k),
        modulus=lambda: 1 << (n * k + 1),
        constraint=ChangeConstraint((1 << k) - 1),
        params={"n": n, "k": k},
    )


def _msd_modulus(n: int) -> int:
    if n % 2:
        return 2 * ((4 ** ((n + 1) // 2) - 1) // 3) + 1
    return 4 * ((4 ** (n // 2) - 1) // 3) + 1


def _make_msd(n: int) -> SchemeSpec:
    """Binary weights 2^(i-1) mod t_n, unit changes on any pixel."""
    n = _require_int("n", n, 1)
    return _finalize(
        id="msd",
        n=n,
        base=(1 << i for i in range(n)),
        modulus=lambda: _msd_modulus(n),
        constraint=ChangeConstraint(1),
        params={"n": n},
    )


def _make_hemd(n: int, w: int, wbase: int = 0) -> SchemeSpec:
    """Hypercube scheme mod w^n with odd w; changes up to (w-1)/2.

    The per-pixel weights are n^(i-1) as the method prints them; wbase=1
    switches to w^(i-1) (the two agree at n == w).
    """
    n = _require_int("n", n, 2)
    w = _require_int("w", w, 3)
    wbase = _require_int("wbase", wbase, 0)
    if w % 2 == 0:
        raise SchemeError(f"w={w} must be odd")
    if wbase not in (0, 1):
        raise SchemeError("wbase must be 0 or 1")
    root = w if wbase else n
    return _finalize(
        id="hemd",
        n=n,
        base=(root**i for i in range(n)),
        modulus=lambda: w**n,
        constraint=ChangeConstraint((w - 1) // 2),
        params={"n": n, "w": w, "wbase": wbase},
    )


def _make_aemd(n: int, m: int) -> SchemeSpec:
    """Positional base-m weights mod m^n; changes up to ceil((m-1)/2)."""
    n = _require_int("n", n, 1)
    m = _require_int("m", m, 2)
    return _finalize(
        id="aemd",
        n=n,
        base=(m**i for i in range(n)),
        modulus=lambda: m**n,
        constraint=ChangeConstraint(m // 2),
        params={"n": n, "m": m},
    )


_BUILDERS = {
    "emd": _make_emd,
    "iemd": _make_iemd,
    "pva": _make_pva,
    "femd": _make_femd,
    "de": _make_de,
    "mpemd": _make_mpemd,
    "emd2": _make_emd2,
    "twoemd": _make_twoemd,
    "gemd": _make_gemd,
    "egemd": _make_egemd,
    "mbe": _make_mbe,
    "msd": _make_msd,
    "hemd": _make_hemd,
    "aemd": _make_aemd,
}

SCHEME_NAMES = tuple(sorted(_BUILDERS))

# each builder's parameters by name, read once: make_scheme checks a call's
# names against them instead of binding the call
_PARAMETERS = {name: inspect.signature(builder).parameters for name, builder in _BUILDERS.items()}


def make_scheme(name: str, **params) -> SchemeSpec:
    """Build a SchemeSpec from a scheme token and its integer parameters.

    Raises SchemeError for a bad token, for an unknown, missing or bad
    parameter, when the table search would hold more than _MAX_SEARCH_BYTES,
    and when the change budget cannot reach every residue.
    """
    token = name.strip().lower()
    if token not in _BUILDERS:
        raise SchemeError(
            f"unknown scheme {name!r}; known: {', '.join(SCHEME_NAMES)}"
        )
    known = _PARAMETERS[token]
    for param in params:
        if param not in known:
            raise SchemeError(f"{token}: unknown parameter {param!r}")
    for param in known.values():
        if param.default is param.empty and param.name not in params:
            raise SchemeError(f"{token}: missing parameter {param.name!r}")
    return _BUILDERS[token](**params)


# ---------------------------------------------------------------------------
# whole-image pipeline


def operational_capacity(img: GrayImage, spec: SchemeSpec) -> int:
    """Embeddable bits under floor(log2 M)-bit symbols."""
    return img.size // spec.n * spec.payload_bits_operational


def _check_capacity(img: GrayImage, spec: SchemeSpec, bit_length: int) -> None:
    if bit_length > operational_capacity(img, spec):
        raise SchemeError(
            f"{bit_length} bits > capacity {operational_capacity(img, spec)}"
        )


def _embed_symbols(
    img: GrayImage, spec: SchemeSpec, symbols: np.ndarray
) -> tuple[GrayImage, int]:
    """The embed core: clamp into a new buffer, embed into it in place, adopt it."""
    pixels = clamped_pixels(img, spec.constraint.per_pixel_max)
    used = len(symbols)
    _embed_groups(spec, pixels[: used * spec.n].reshape(used, spec.n), symbols)
    return GrayImage._adopt(img.width, img.height, pixels), used


def embed_message(
    img: GrayImage, spec: SchemeSpec, bits: Sequence[int] | np.ndarray
) -> tuple[GrayImage, int]:
    """Clamp, partition, and embed a list or array of bits; returns (stego, used groups).

    Groups past the message and the row-major tail keep their clamped
    values. Raises SchemeError when the message does not fit.
    """
    _check_capacity(img, spec, len(bits))
    return _embed_symbols(img, spec, bits_to_symbols(bits, spec.modulus))


def embed_bytes(
    img: GrayImage, spec: SchemeSpec, data: bytes | np.ndarray, bit_length: int
) -> tuple[GrayImage, int]:
    """embed_message for the first bit_length bits of packed bytes, MSB first."""
    _check_capacity(img, spec, bit_length)
    return _embed_symbols(img, spec, bytes_to_symbols(data, spec.modulus, bit_length))


def _extract_symbols(img: GrayImage, spec: SchemeSpec, bit_length: int) -> np.ndarray:
    """The extract core: the symbols of the groups that carry bit_length bits."""
    if bit_length < 0:
        raise ValueError("bit_length must be >= 0")
    _check_capacity(img, spec, bit_length)
    used = -(-bit_length // spec.payload_bits_operational)
    return _extract_groups(spec, img.pixels[: used * spec.n].reshape(used, spec.n))


def extract_bytes(img: GrayImage, spec: SchemeSpec, bit_length: int) -> np.ndarray:
    """Read bit_length bits back out of a stego image, packed MSB first into a
    uint8 array with the pad bits zeroed; needs no cover."""
    symbols = _extract_symbols(img, spec, bit_length)
    return symbols_to_bytes(symbols, spec.modulus, bit_length)


def extract_message(img: GrayImage, spec: SchemeSpec, bit_length: int) -> list[int]:
    """extract_bytes as a list of 0/1 ints."""
    symbols = _extract_symbols(img, spec, bit_length)
    # a byte string's items are Python ints, made faster than tolist() makes them
    return list(symbols_to_bits(symbols, spec.modulus, bit_length).tobytes())

import hashlib
import itertools
import tracemalloc
import zlib
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdsteg import schemes
from emdsteg.image import GrayImage, bits_to_symbols, clamp_for_scheme, clamped_pixels
from emdsteg.metrics import DistortionProfile, theoretical_distortion
from emdsteg.schemes import (
    ChangeConstraint,
    SchemeError,
    embed_bytes,
    embed_group,
    embed_message,
    extract_bytes,
    extract_message,
    make_scheme,
    operational_capacity,
)

from oracles import allows, embedded_distortion, extraction_value

# One canonical configuration per implemented scheme family.
CANONICAL_CONFIGS = [
    ("emd", {"n": 2}),
    ("iemd", {}),
    ("pva", {"t": 2}),
    ("femd", {"t": 2}),
    ("de", {"k": 1}),
    ("mpemd", {"n": 2, "key": 3}),
    ("emd2", {"n": 2}),
    ("twoemd", {"n": 2}),
    ("gemd", {"n": 2}),
    ("egemd", {"n": 4}),
    ("mbe", {"n": 2, "k": 1}),
    ("msd", {"n": 3}),
    ("hemd", {"n": 3, "w": 3}),
    ("aemd", {"n": 2, "m": 4}),
]


def plain_value(spec, group):
    """(sum(g_i * b_i) + key) mod M of a plain scheme, computed without the kernel."""
    return (sum(v * b for v, b in zip(group, spec.base)) + spec.key) % spec.modulus


def brute_force_embed(spec, group, symbol):
    """Independent exhaustive reference for the minimal-distortion solver."""
    z = spec.constraint.per_pixel_max
    best_key = None
    best = None
    for deltas in itertools.product(range(-z, z + 1), repeat=spec.n):
        if not allows(spec.constraint, deltas):
            continue
        candidate = tuple(v + d for v, d in zip(group, deltas))
        if plain_value(spec, candidate) != symbol:
            continue
        key = _cost_key(deltas, spec.constraint)
        if best_key is None or key < best_key:
            best_key = key
            best = candidate
    return best


class NoCaseMatches(AssertionError):
    """IEMD case list exhausted; cannot happen for a feasible spec."""


def emd_embed_group(x, s, n):
    """Classic single-change embedding on n pixels with M = 2n + 1.

    d = (s - f) mod M selects the pixel: d <= n increments pixel d, larger
    d decrements pixel 2n+1-d (a decrement of weight i shifts f by -i).
    """
    modulus = 2 * n + 1
    if not 0 <= s < modulus:
        raise SchemeError(f"symbol {s} outside [0, {modulus})")
    if len(x) != n:
        raise SchemeError(f"group has {len(x)} pixels, expected {n}")
    f = sum(v * i for v, i in zip(x, range(1, n + 1))) % modulus
    if s == f:
        return tuple(x)
    d = (s - f) % modulus
    out = list(x)
    if d <= n:
        out[d - 1] += 1
    else:
        out[modulus - d - 1] -= 1
    return tuple(out)


_IEMD_CASES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1))


def iemd_embed_group(x, s):
    """Pair embedding with weights (1, 3) mod 8; first matching case wins."""
    if len(x) != 2:
        raise SchemeError("expects a pixel pair")
    if not 0 <= s < 8:
        raise SchemeError(f"symbol {s} outside [0, 8)")
    x1, x2 = x
    if (x1 + 3 * x2) % 8 == s:
        return (x1, x2)
    for d1, d2 in _IEMD_CASES:
        g1, g2 = x1 + d1, x2 + d2
        if (g1 + 3 * g2) % 8 == s:
            return (g1, g2)
    raise NoCaseMatches("no candidate pair carries the symbol")


def pva_embed_pixel(x, s, t):
    """Single-pixel embedding mod t^2: subtract the smallest residue shift.

    The shift r satisfies r = (x - s) mod t^2 taken in
    [-floor(t^2/2), floor(t^2/2)]; an exact tie goes to positive r, so the
    pixel moves down.
    """
    if not 2 <= t <= 4:
        raise SchemeError(f"t={t} outside [2, 4]")
    modulus = t * t
    if not 0 <= s < modulus:
        raise SchemeError(f"symbol {s} outside [0, {modulus})")
    raw = (x - s) % modulus
    r = raw if raw <= modulus // 2 else raw - modulus
    return x - r


def reference_embed(spec, group, symbol):
    """Per-group oracle that shares no code with the table kernel.

    EMD, IEMD and PVA run their published procedure, the others the brute-force
    search; the split schemes split the symbol as their docstrings state and
    embed each part with those oracles.
    """
    if spec.id == "emd":
        return emd_embed_group(group, symbol, spec.n)
    if spec.id == "iemd":
        return iemd_embed_group(group, symbol)
    if spec.id == "pva":
        return (pva_embed_pixel(group[0], symbol, spec.params["t"]),)
    if spec.id == "twoemd":
        # s = s_hi * (2h+1) + s_lo; each h-pixel half is an EMD group
        h = spec.n // 2
        s_hi, s_lo = divmod(symbol, 2 * h + 1)
        return emd_embed_group(group[:h], s_hi, h) + emd_embed_group(group[h:], s_lo, h)
    if spec.id == "egemd":
        # s = 2^(n1+1) * c + r; GEMD puts r into the first n1 pixels, c into the rest
        n1 = spec.params["n1"]
        c, r = divmod(symbol, 1 << (n1 + 1))
        low = make_scheme("gemd", n=n1)
        high = make_scheme("gemd", n=spec.n - n1)
        return brute_force_embed(low, group[:n1], r) + brute_force_embed(
            high, group[n1:], c
        )
    return brute_force_embed(spec, group, symbol)


def _cost_key(deltas, constraint):
    """Sort key of a change vector: a budget with an L1 radius ranks L1 first."""
    sq = sum(d * d for d in deltas)
    ab = sum(abs(d) for d in deltas)
    if constraint.l1_radius is not None:
        return (ab, sq, deltas)
    return (sq, ab, deltas)


def _feasible_vectors(n, constraint):
    z = constraint.per_pixel_max
    limit = constraint.l1_radius
    yield (0,) * n
    nonzero = [v for v in range(-z, z + 1) if v]
    for count in range(1, n + 1):
        for positions in itertools.combinations(range(n), count):
            for values in itertools.product(nonzero, repeat=count):
                if limit is not None and sum(abs(v) for v in values) > limit:
                    continue
                delta = [0] * n
                for pos, value in zip(positions, values):
                    delta[pos] = value
                yield tuple(delta)


def enumeration_table(n, base, modulus, constraint):
    """The pure-Python search the numpy table search replaced: one pass over
    every feasible vector, keeping the smallest cost key per residue."""
    best = [None] * modulus
    for deltas in _feasible_vectors(n, constraint):
        r = sum(b * d for b, d in zip(base, deltas)) % modulus
        key = _cost_key(deltas, constraint)
        if best[r] is None or key < best[r][0]:
            best[r] = (key, deltas)
    if any(entry is None for entry in best):
        return None
    return tuple(entry[1] for entry in best)


def assert_same_table(got, want):
    """got is an (M, n) array whose rows are exactly the change vectors of want."""
    assert isinstance(got, np.ndarray)
    assert got.tolist() == [list(row) for row in want]


def plain_specs(spec):
    """The spec itself, or the sub-specs that carry the tables of a split scheme."""
    if spec.is_composite:
        return [leaf for sub in spec.sub_specs for leaf in plain_specs(sub)]
    return [spec]


def residue_deltas(spec, embed, group):
    """Change vector embed(group, symbol) makes for each residue (symbol - f) mod M."""
    f = plain_value(spec, group)
    rows = []
    for r in range(spec.modulus):
        out = embed(group, (f + r) % spec.modulus)
        rows.append(tuple(a - b for a, b in zip(out, group)))
    return tuple(rows)


class TestExtraction:
    def test_weighted_sum_mod(self):
        assert extraction_value(make_scheme("emd", n=2), (100, 100)) == 0
        assert extraction_value(make_scheme("gemd", n=2), (10, 20)) == 6

    def test_zero_group(self):
        for name, params in CANONICAL_CONFIGS:
            spec = make_scheme(name, **params)
            if spec.key:
                continue
            assert extraction_value(spec, (0,) * spec.n) == 0

    def test_group_size_checked(self):
        # the one-row embed wrapper checks the group size; extraction has no
        # one-row entry point in emdsteg
        with pytest.raises(SchemeError, match=r"^group has 3 pixels, emd expects 2$"):
            embed_group(make_scheme("emd", n=2), (1, 2, 3), 0)


class TestMakeScheme:
    def test_basic_construction(self):
        spec = make_scheme("emd", n=2)
        assert spec.base == (1, 2)
        assert spec.modulus == 5
        spec = make_scheme("emd2", n=2)
        assert spec.base == (1, 3)
        assert spec.modulus == 9

    def test_emd2_large_groups(self):
        spec = make_scheme("emd2", n=4)
        assert spec.base == (1, 2, 6, 11)
        assert spec.modulus == 2 * 13 + 1

    def test_hemd_even_width_rejected(self):
        with pytest.raises(SchemeError, match=r"^w=4 must be odd$"):
            make_scheme("hemd", n=3, w=4)

    def test_unknown_scheme(self):
        with pytest.raises(SchemeError, match=r"^unknown scheme 'nope'; known: aemd, "):
            make_scheme("nope")

    def test_missing_parameter(self):
        with pytest.raises(
            SchemeError, match=r"^emd: .*missing 1 required positional argument: 'n'$"
        ):
            make_scheme("emd")

    def test_infeasible_budget_rejected(self):
        # weights 1, 3, 9 cannot reach every residue mod 5^3 with |d| <= 2
        with pytest.raises(
            SchemeError, match=r"^hemd: some residue mod 125 is unreachable within the budget$"
        ):
            make_scheme("hemd", n=3, w=5)
        with pytest.raises(
            SchemeError, match=r"^gemd: some residue mod 4 is unreachable within the budget$"
        ):
            make_scheme("egemd", n=3)

    def test_msd_modulus_series(self):
        assert make_scheme("msd", n=3).modulus == 11
        assert make_scheme("msd", n=2).modulus == 5
        assert make_scheme("msd", n=4).modulus == 21

    def test_mpemd_key_range(self):
        with pytest.raises(SchemeError, match=r"^key=4 outside \[0, 4\)$"):
            make_scheme("mpemd", n=2, key=4)

    def test_hemd_weight_flag(self):
        # literal weights stall at w=5, the power-of-w variant stays feasible
        alt = make_scheme("hemd", n=3, w=5, wbase=1)
        assert alt.base == (1, 5, 25)
        assert alt.modulus == 125
        literal = make_scheme("hemd", n=3, w=3)
        flagged = make_scheme("hemd", n=3, w=3, wbase=1)
        assert literal.base == flagged.base == (1, 3, 9)

    def test_coverage_holds_for_canonical_set(self):
        for name, params in CANONICAL_CONFIGS:
            spec = make_scheme(name, **params)
            if spec.is_composite:
                continue
            assert spec.solver_table is not None
            assert len(spec.solver_table) == spec.modulus


class TestExplicitEmbedders:
    def test_single_change_cases(self):
        assert emd_embed_group((100, 100), 0, 2) == (100, 100)
        assert emd_embed_group((100, 100), 3, 2) == (100, 99)
        assert emd_embed_group((5, 5), 1, 2) == (6, 5)

    def test_single_change_symbol_range(self):
        with pytest.raises(SchemeError, match=r"^symbol 5 outside \[0, 5\)$"):
            emd_embed_group((100, 100), 5, 2)

    def test_pair_cases(self):
        assert iemd_embed_group((10, 20), 6) == (10, 20)
        assert iemd_embed_group((10, 20), 5) == (9, 20)
        assert iemd_embed_group((10, 20), 7) == (11, 20)

    def test_pixel_shift_cases(self):
        assert pva_embed_pixel(100, 0, 2) == 100
        assert pva_embed_pixel(100, 3, 2) == 99
        # both directions are two steps away; the tie moves the pixel down
        assert pva_embed_pixel(100, 2, 2) == 98

    def test_paired_halves(self):
        spec = make_scheme("twoemd", n=2)
        assert embed_group(spec, (100, 100, 100, 100), 16) == (100, 99, 101, 100)
        current = extraction_value(spec, (100, 100, 100, 100))
        assert embed_group(spec, (100, 100, 100, 100), current) == (100, 100, 100, 100)

    def test_split_group_decomposition(self):
        spec = make_scheme("egemd", n=4, n1=2)
        out = embed_group(spec, (50, 60, 70, 80), 0b100101)
        assert extraction_value(spec, out) == 0b100101

    def test_split_size_validated(self):
        with pytest.raises(SchemeError, match=r"^n1=0 outside \[1, 3\]$"):
            make_scheme("egemd", n=4, n1=0)


class TestSolver:
    def test_zero_change_optimum(self):
        spec = make_scheme("gemd", n=2)
        assert embed_group(spec, (10, 20), 6) == (10, 20)

    def test_unit_change(self):
        spec = make_scheme("gemd", n=2)
        assert embed_group(spec, (10, 20), 7) == (11, 20)

    def test_l1_objective(self):
        spec = make_scheme("de", k=1)
        assert embed_group(spec, (100, 100), 2) == (99, 100)

    def test_symbol_range_checked(self):
        spec = make_scheme("gemd", n=2)
        with pytest.raises(SchemeError, match=r"^symbol 8 outside \[0, 8\)$"):
            embed_group(spec, (10, 20), 8)

    @pytest.mark.parametrize(
        "name,params",
        [c for c in CANONICAL_CONFIGS if c[0] not in ("twoemd", "egemd")],
    )
    def test_matches_brute_force(self, name, params):
        spec = make_scheme(name, **params)
        oracle = partial(brute_force_embed, spec)
        assert spec.solver_table == residue_deltas(spec, oracle, (128,) * spec.n)

    @pytest.mark.parametrize(
        "name,params",
        [("emd", {"n": 2}), ("emd", {"n": 5}), ("iemd", {}), ("pva", {"t": 3})]
        # the single-change search over many pixels, and the M/2 ties of PVA
        + [("emd", {"n": 40}), ("pva", {"t": 2}), ("pva", {"t": 4})],
    )
    def test_embed_table_matches_closed_form(self, name, params):
        # the closed forms depend on the group only through the residue, so
        # every interior group yields the table built on the reference group
        spec = make_scheme(name, **params)
        oracle = partial(reference_embed, spec)
        z = spec.constraint.per_pixel_max
        rng = np.random.default_rng(5)
        groups = [(128,) * spec.n]
        groups += [tuple(int(v) for v in rng.integers(z, 256 - z, spec.n)) for _ in range(5)]
        for group in groups:
            assert spec.embed_table == residue_deltas(spec, oracle, group)

    def test_explicit_never_beats_solver(self):
        # the closed-form procedures satisfy the same feasibility predicate;
        # the solver's squared distortion is never larger, and matches for
        # the single-change scheme
        for spec in (make_scheme("emd", n=2), make_scheme("iemd"), make_scheme("pva", t=3)):
            for explicit, solved in zip(spec.embed_table, spec.solver_table):
                assert allows(spec.constraint, explicit)
                cost_e = sum(d * d for d in explicit)
                cost_s = sum(d * d for d in solved)
                assert cost_s <= cost_e
                if spec.id == "emd":
                    assert cost_s == cost_e


def _no_search(*args):
    raise AssertionError("the change budget was searched")


def rank_budgets(test):
    """Run a rank test on random budgets and on budgets at the guard's edge:
    the largest z for one, two and three changed pixels, the most unit
    changes, and radii that cut a box the guard would refuse down to one it
    admits."""
    edges = [
        dict(n=1, z=4_999_999, l1_radius=None),
        dict(n=2, z=1580, l1_radius=None),
        dict(n=3, z=107, l1_radius=None),
        dict(n=14, z=1, l1_radius=None),
        dict(n=1, z=6_000_000, l1_radius=4_999_999),
        dict(n=2, z=6_000_000, l1_radius=1580),
        dict(n=100, z=1, l1_radius=1),
    ]
    for edge in edges:
        test = example(**edge)(test)
    test = settings(max_examples=300, deadline=None)(test)
    return given(
        n=st.integers(1, 30),
        z=st.integers(0, 20) | st.integers(0, 6_000_000),
        l1_radius=st.none() | st.integers(0, 40) | st.integers(0, 6_000_000),
    )(test)


class TestTableSearch:
    @pytest.mark.parametrize(
        "name,params",
        CANONICAL_CONFIGS
        + [
            ("gemd", {"n": 10}),
            # five changed pixels span 46656 rows: more than one block
            ("aemd", {"n": 6, "m": 6}),
            # per-pixel budgets of 255, 150 and 200 need int16 deltas, and
            # their grids of two changed values are cut into several blocks
            ("mbe", {"n": 2, "k": 8}),
            ("femd", {"t": 300}),
            ("de", {"k": 200}),
        ],
    )
    def test_matches_enumeration(self, name, params):
        for spec in plain_specs(make_scheme(name, **params)):
            expected = enumeration_table(spec.n, spec.base, spec.modulus, spec.constraint)
            assert spec.solver_table == expected

    @given(
        base=st.lists(st.integers(1, 10**6), min_size=1, max_size=5).map(tuple),
        z=st.integers(0, 3),
        l1_radius=st.none() | st.integers(0, 8),
        modulus=st.integers(2, 200),
    )
    @settings(max_examples=150, deadline=None)
    # infeasible past the pigeonhole check: only even residues are reachable
    @example(base=(2, 4), z=1, l1_radius=None, modulus=8)
    # feasible, with cost ties that only the lexicographic order breaks
    @example(base=(1, 1, 1), z=2, l1_radius=3, modulus=5)
    # a zero L1 radius allows only the zero vector
    @example(base=(331097, 964339, 926279, 764469, 824888), z=3, l1_radius=0,
             modulus=177)
    def test_matches_enumeration_on_random_budgets(self, base, z, l1_radius, modulus):
        n = len(base)
        constraint = ChangeConstraint(z, l1_radius=l1_radius)
        got = schemes._optimal_delta_table(n, base, modulus, constraint)
        want = enumeration_table(n, base, modulus, constraint)
        if want is None:
            assert got is None
        else:
            assert_same_table(got, want)

    def test_objectives_rank_differently(self):
        # weights (24, 26) mod 19: some residues have an L1 optimum that a
        # vector of smaller squared change beats under L2. A radius of
        # n * z = 6 excludes no vector but switches the search to L1 first.
        constraints = (ChangeConstraint(3), ChangeConstraint(3, l1_radius=6))
        tables = [
            schemes._optimal_delta_table(2, (24, 26), 19, constraint)
            for constraint in constraints
        ]
        assert not np.array_equal(*tables)
        for constraint, table in zip(constraints, tables):
            assert_same_table(table, enumeration_table(2, (24, 26), 19, constraint))

    @pytest.mark.parametrize(
        "name,params,digest",
        [
            ("gemd", {"n": 14},
             "aa63fe8d590affcee784686e505860a81356a8e77a4343a3f883dcc71f73fbc7"),
            ("egemd", {"n": 12},
             "82f886bb184fe670d7be344987c77f9a2d284044d37b1ad91b9e0b1269783130"),
            ("aemd", {"n": 10, "m": 4},
             "b76a076287c3b06eb12046810db38e04654ddb263d66c38ef16c8e9f4710a65f"),
            # the L1 radius, the count of changed pixels when k < n, and a
            # wide per-pixel budget
            ("de", {"k": 200},
             "fd5a19f8fa23009f29ea354971b6d5e93ad2ad98971aa438eea788a5e9a32b09"),
            ("emd", {"n": 100},
             "35312174b0c0427ac61285da695bb299416bd43aaeaee5172b23dc01be632fe9"),
            ("emd2", {"n": 6},
             "79ce2285d7a5cbf6efc21e6deec055b5dc59bb1b1477ba770d80e96202cc355d"),
            ("femd", {"t": 300},
             "0844769fdd3e5c920aa8eb925dfe5b97fd74f2e31152ac2004a819d7facef3fc"),
            ("mpemd", {"n": 8, "key": 5},
             "6a85ccc06e9ef84e13c77604f59bb74e6b41c72172456ee45f759852d693b5d2"),
        ],
    )
    def test_large_tables_are_pinned(self, name, params, digest):
        # sha256 over each leaf's dtype, shape and table bytes; the first three
        # are past the reach of enumeration_table and were recorded from an
        # exhaustive search
        h = hashlib.sha256()
        for spec in plain_specs(make_scheme(name, **params)):
            a = spec.solver_array
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_single_change_with_a_wide_per_pixel_budget(self):
        # one pixel mod m = 10^5: z = 50000 needs int32 deltas, and the
        # nearest change to each residue wins, the negative one on a tie
        m = 100_000
        table = make_scheme("aemd", n=1, m=m).solver_array
        assert table.dtype == np.int32
        r = np.arange(m)
        assert np.array_equal(table[:, 0], (r + m // 2) % m - m // 2)

    def test_rows_are_tuples_of_ints(self):
        table = make_scheme("gemd", n=3).solver_table
        assert type(table) is tuple
        assert all(type(row) is tuple for row in table)
        assert all(type(d) is int for row in table for d in row)

    def test_guard_rejects_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(schemes, "_search_column", _no_search)
        # 3**16 vectors
        with pytest.raises(
            SchemeError, match=r"^change budget exceeds the limit of 10000000 vectors$"
        ):
            make_scheme("gemd", n=16)
        # the guard also wins over the pigeonhole exit
        with pytest.raises(
            SchemeError, match=r"^change budget exceeds the limit of 10000000 vectors$"
        ):
            schemes._optimal_delta_table(16, (1,) * 16, 2**40, ChangeConstraint(1))
        # the count stops at the limit: in full it has over 4300 digits and
        # takes seconds to sum
        with pytest.raises(
            SchemeError, match=r"^change budget exceeds the limit of 10000000 vectors$"
        ):
            make_scheme("gemd", n=10_000)

    @pytest.mark.parametrize(
        "name,params", [("aemd", {"n": 5000, "m": 4}), ("mbe", {"n": 1000, "k": 100})]
    )
    def test_guard_runs_before_the_weights_exist(self, name, params):
        # the weights alone take megabytes; the refusal allocates almost nothing
        tracemalloc.start()
        try:
            with pytest.raises(SchemeError, match=r"^change budget exceeds the limit"):
                make_scheme(name, **params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_radius_is_keyword_only(self):
        # an old positional ChangeConstraint(z, k) must not read k as a radius
        with pytest.raises(TypeError):
            ChangeConstraint(1, 2)

    @given(
        n=st.integers(1, 5),
        z=st.integers(0, 3),
        l1_radius=st.none() | st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    # a radius below both z and n cuts both sides of the box
    @example(n=5, z=3, l1_radius=2)
    @example(n=4, z=3, l1_radius=1)
    @example(n=2, z=3, l1_radius=0)
    def test_search_size_bounds_the_budget(self, n, z, l1_radius):
        # the pigeonhole exit trusts _search_size to count at least every
        # vector of the budget, after the radius cuts the search box
        constraint = ChangeConstraint(z, l1_radius=l1_radius)
        count = sum(1 for _ in _feasible_vectors(n, constraint))
        assert schemes._search_size(n, constraint) >= count

    @rank_budgets
    def test_rank_top_fits_int64(self, n, z, l1_radius):
        constraint = ChangeConstraint(z, l1_radius=l1_radius)
        box = schemes._search_box(n, constraint)
        _, top = schemes._ranks(*box, l1_radius is not None)
        # a candidate adds one column's rank to a reached key below the top
        admitted = schemes._search_size(n, constraint) <= schemes._MAX_SEARCH_STATES
        assert not admitted or 2 * top < 2**63

    @rank_budgets
    def test_rank_dtype_holds_every_candidate_sum(self, n, z, l1_radius):
        constraint = ChangeConstraint(z, l1_radius=l1_radius)
        if schemes._search_size(n, constraint) > schemes._MAX_SEARCH_STATES:
            return
        box = schemes._search_box(n, constraint)
        ranks, top = schemes._ranks(*box, l1_radius is not None)
        # one column's rank plus a reached key, each below the top
        assert ranks.max() < top
        assert 2 * top <= np.iinfo(ranks.dtype).max
        # and no narrower dtype would hold it
        narrower = {np.int32: np.int16, np.int64: np.int32}.get(ranks.dtype.type)
        assert narrower is None or 2 * top > np.iinfo(narrower).max

    def test_pigeonhole_exit_skips_enumeration(self, monkeypatch):
        monkeypatch.setattr(schemes, "_search_column", _no_search)
        # 9 change vectors cannot reach 10 residues
        constraint = ChangeConstraint(1)
        assert schemes._search_size(2, constraint) == 9
        assert schemes._optimal_delta_table(2, (1, 3), 10, constraint) is None
        # gemd n=1: three vectors, four residues
        with pytest.raises(
            SchemeError, match=r"^gemd: some residue mod 4 is unreachable within the budget$"
        ):
            make_scheme("gemd", n=1)

    def test_kernel_never_builds_table_views(self):
        spec = make_scheme("aemd", n=8, m=4)
        rng = np.random.default_rng(9)
        cover = GrayImage(64, 64, rng.integers(0, 256, 64 * 64))
        bits = rng.integers(0, 2, operational_capacity(cover, spec)).tolist()
        stego, _ = embed_message(cover, spec, bits)
        assert extract_message(stego, spec, len(bits)) == bits
        group = (128,) * spec.n
        for symbol in range(10):
            assert extraction_value(spec, embed_group(spec, group, symbol)) == symbol
        theoretical_distortion(spec)
        assert "embed_table" not in vars(spec)
        assert "solver_table" not in vars(spec)


class TestTableArrays:
    @pytest.mark.parametrize(
        "name,params",
        CANONICAL_CONFIGS + [("mbe", {"n": 2, "k": 8}), ("femd", {"t": 300})],
    )
    def test_arrays_read_only_in_delta_dtype(self, name, params):
        for spec in plain_specs(make_scheme(name, **params)):
            dtype = schemes._delta_type(spec.constraint.per_pixel_max)
            for table in (spec.solver_array, spec.embed_array):
                assert table.shape == (spec.modulus, spec.n)
                assert table.dtype == dtype
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0, 0] = 0

    @pytest.mark.parametrize("name,params", CANONICAL_CONFIGS)
    def test_solver_schemes_share_one_table(self, name, params):
        for spec in plain_specs(make_scheme(name, **params)):
            if spec.id == "iemd":
                # IEMD alone keeps its case-order table apart from the solver's
                assert spec.embed_array is not spec.solver_array
                assert spec.embed_table[4] == (1, 1)
                assert spec.solver_table[4] == (-1, -1)
            else:
                assert spec.embed_array is spec.solver_array
                assert spec.embed_table is spec.solver_table

    @pytest.mark.parametrize("row_slice", [4096, 3])
    @pytest.mark.parametrize(
        "name,params", CANONICAL_CONFIGS + [("egemd", {"n": 8}), ("egemd", {"n": 5, "n1": 3})]
    )
    def test_views_equal_array_rows(self, name, params, row_slice, monkeypatch):
        # a slice of 3 rows cuts every table into several slices and a short tail
        monkeypatch.setattr(schemes, "_ROW_SLICE", row_slice)
        spec = make_scheme(name, **params)
        if spec.is_composite:
            assert spec.solver_table is spec.embed_table is None
        for leaf in plain_specs(spec):
            for view, table in (
                (leaf.solver_table, leaf.solver_array),
                (leaf.embed_table, leaf.embed_array),
            ):
                assert view == tuple(tuple(row) for row in table.tolist())


class TestRoundTrip:
    @pytest.mark.parametrize("name,params", CANONICAL_CONFIGS)
    def test_embed_then_extract_per_group(self, name, params):
        spec = make_scheme(name, **params)
        z = spec.constraint.per_pixel_max
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(200):
            group = tuple(int(v) for v in rng.integers(z, 256 - z, spec.n))
            symbol = int(rng.integers(0, spec.modulus))
            stego = embed_group(spec, group, symbol)
            assert extraction_value(spec, stego) == symbol
            deltas = [a - b for a, b in zip(stego, group)]
            assert allows(spec.constraint, deltas)
            assert all(0 <= v <= 255 for v in stego)

    def test_mpemd_wrong_key_misreads(self):
        for key in range(4):
            spec = make_scheme("mpemd", n=2, key=key)
            rng = np.random.default_rng(key)
            groups = [tuple(int(v) for v in rng.integers(1, 255, 2)) for _ in range(64)]
            symbols = [int(rng.integers(0, spec.modulus)) for _ in groups]
            stegos = [embed_group(spec, g, s) for g, s in zip(groups, symbols)]
            assert [extraction_value(spec, g) for g in stegos] == symbols
            wrong = make_scheme("mpemd", n=2, key=(key + 1) % 4)
            assert [extraction_value(wrong, g) for g in stegos] != symbols


class TestMessagePipeline:
    def test_empty_message_only_clamps(self):
        img = GrayImage(4, 2, [0, 255, 10, 20, 30, 40, 50, 60])
        spec = make_scheme("emd", n=2)
        stego, used = embed_message(img, spec, [])
        assert used == 0
        assert list(stego.pixels) == [1, 254, 10, 20, 30, 40, 50, 60]

    def test_round_trip_on_flat_cover(self):
        from emdsteg.rng import seeded_bits

        img = GrayImage.flat(64, 64, 128)
        spec = make_scheme("emd", n=2)
        bits = seeded_bits(1, 1000)
        stego, used = embed_message(img, spec, bits)
        assert used == 500
        assert extract_message(stego, spec, 1000) == bits.tolist()

    def test_full_capacity_boundary(self):
        img = GrayImage.flat(10, 10, 128)
        spec = make_scheme("emd", n=2)
        cap = operational_capacity(img, spec)
        bits = [0] * cap
        stego, _ = embed_message(img, spec, bits)
        assert extract_message(stego, spec, cap) == bits
        over = rf"^{cap + 1} bits > capacity {cap}$"
        with pytest.raises(SchemeError, match=over):
            embed_message(img, spec, [0] * (cap + 1))
        with pytest.raises(SchemeError, match=over):
            extract_message(stego, spec, cap + 1)
        with pytest.raises(SchemeError, match=over):
            embed_bytes(img, spec, bytes(cap // 8 + 1), cap + 1)
        with pytest.raises(SchemeError, match=over):
            extract_bytes(stego, spec, cap + 1)
        with pytest.raises(ValueError):
            extract_bytes(stego, spec, -1)

    def test_tail_pixels_untouched(self):
        img = GrayImage(5, 1, [100, 100, 100, 100, 77])
        spec = make_scheme("emd", n=2)
        stego, _ = embed_message(img, spec, [1, 0, 1, 1])
        assert int(stego.pixels[-1]) == 77

    @pytest.mark.parametrize("name,params", CANONICAL_CONFIGS)
    def test_vector_path_matches_group_path(self, name, params):
        from emdsteg.image import clamp_for_scheme

        spec = make_scheme(name, **params)
        rng = np.random.default_rng(99)
        width = spec.n * 16
        img = GrayImage(width, 4, rng.integers(0, 256, width * 4))
        bits = [int(b) for b in rng.integers(0, 2, operational_capacity(img, spec))]
        stego, used = embed_message(img, spec, bits)
        clamped = clamp_for_scheme(img, spec.constraint.per_pixel_max)
        symbols = bits_to_symbols(bits, spec.modulus)
        flat = clamped.pixels.astype(int)
        for index in range(used):
            group = tuple(int(v) for v in flat[index * spec.n : (index + 1) * spec.n])
            expected = reference_embed(spec, group, int(symbols[index]))
            got = tuple(
                int(v) for v in stego.pixels[index * spec.n : (index + 1) * spec.n]
            )
            assert got == expected

    @pytest.mark.parametrize("name,params", CANONICAL_CONFIGS)
    def test_message_round_trip_every_scheme(self, name, params):
        spec = make_scheme(name, **params)
        rng = np.random.default_rng(3)
        img = GrayImage(spec.n * 8, 8, rng.integers(0, 256, spec.n * 64))
        nbits = operational_capacity(img, spec)
        bits = [int(b) for b in rng.integers(0, 2, nbits)]
        stego, _ = embed_message(img, spec, bits)
        assert extract_message(stego, spec, nbits) == bits

    def test_wide_accumulator_stays_exact(self):
        # 255 * sum(base) >= 2**31 needs the int64 accumulator; the weights
        # agree with emd n=2 mod 5, so the stego image must too
        narrow = make_scheme("emd", n=2)
        wide = replace(narrow, base=(1, 2 + 5 * 10**9))
        rng = np.random.default_rng(11)
        img = GrayImage(32, 32, rng.integers(0, 256, 32 * 32))
        nbits = operational_capacity(img, narrow)
        bits = rng.integers(0, 2, nbits).astype(np.uint8)
        stego, used = embed_message(img, wide, bits)
        assert (stego, used) == embed_message(img, narrow, bits)
        assert extract_message(stego, wide, nbits) == bits.tolist()


class TestDistortionProfile:
    @pytest.mark.parametrize("name,params", CANONICAL_CONFIGS)
    def test_matches_scalar_loop(self, name, params):
        # the per-symbol loop over Python ints that the batch computation
        # replaced; equal reprs also keep numpy scalars out of the profile
        spec = make_scheme(name, **params)
        ref = (128,) * spec.n
        total_abs = total_sq = worst = 0
        for s in range(spec.modulus):
            g = reference_embed(spec, ref, s)
            abs_sum = sum(abs(a - b) for a, b in zip(g, ref))
            total_abs += abs_sum
            total_sq += sum((a - b) ** 2 for a, b in zip(g, ref))
            worst = max(worst, abs_sum)
        denom = spec.modulus * spec.n
        expected = DistortionProfile(total_abs / denom, total_sq / denom, worst)
        assert repr(theoretical_distortion(spec)) == repr(expected)

    @pytest.mark.parametrize(
        "name,params",
        CANONICAL_CONFIGS
        + [
            # int16 tables, whose squares pass 2**15 from z = 182 on, one
            # with an L1 radius below z * n, and an int32 table
            ("de", {"k": 200}),
            ("femd", {"t": 300}),
            ("aemd", {"n": 1, "m": 364}),
            ("mbe", {"n": 2, "k": 8}),
            ("aemd", {"n": 1, "m": 100_000}),
            # splits other than the default ones
            ("egemd", {"n": 9, "n1": 2}),
            ("twoemd", {"n": 5}),
        ],
    )
    def test_matches_embedding_every_symbol(self, name, params):
        spec = make_scheme(name, **params)
        assert repr(theoretical_distortion(spec)) == repr(embedded_distortion(spec))

    def test_reads_the_embed_table_not_the_solver_table(self):
        # IEMD embeds with its case table, which differs from the solver's
        spec = make_scheme("iemd")
        assert not np.array_equal(spec.embed_array, spec.solver_array)
        assert repr(theoretical_distortion(spec)) == repr(embedded_distortion(spec))
        # a costlier row 0 that still reaches residue 0: 3 - 3 = 0 mod 8
        table = spec.embed_array.copy()
        table[0] = (3, -1)
        costly = replace(spec, embed_array=table)
        assert repr(theoretical_distortion(costly)) == repr(embedded_distortion(costly))
        assert theoretical_distortion(costly) != theoretical_distortion(spec)


# ---------------------------------------------------------------------------
# The matmul kernel and codec that the column-accumulated in-place kernel
# replaced, kept as its reference: (g @ base + key) % M, then (s - f) % M,
# then an int16 add; bits pack by a matmul and unpack by a broadcast shift.


def matmul_values(spec, groups):
    if spec.is_composite:
        return sum(
            matmul_values(sub, groups[:, first : first + sub.n]) * place
            for sub, first, place in schemes._parts(spec)
        )
    wide = max(255 * sum(map(abs, spec.base)) + abs(spec.key), spec.modulus) >= 2**31
    acc = np.int64 if wide else np.int32
    return (groups @ np.asarray(spec.base, dtype=acc) + acc(spec.key)) % acc(spec.modulus)


def matmul_embed(spec, groups, symbols):
    if spec.is_composite:
        return np.hstack(
            [
                matmul_embed(sub, groups[:, first : first + sub.n], symbols // place)
                for sub, first, place in schemes._parts(spec)
            ]
        )
    residues = (symbols - matmul_values(spec, groups)) % spec.modulus
    table = np.asarray(spec.embed_table, dtype=np.int16).reshape(spec.modulus, spec.n)
    return groups + table[residues]


def matmul_embed_message(img, spec, bits):
    width = spec.payload_bits_operational
    padded = np.zeros(-(-len(bits) // width) * width, dtype=np.int64)
    padded[: len(bits)] = bits
    symbols = padded.reshape(-1, width) @ (1 << np.arange(width - 1, -1, -1))
    pixels = clamp_for_scheme(img, spec.constraint.per_pixel_max).pixels.copy()
    used = len(symbols)
    head = pixels[: used * spec.n].reshape(used, spec.n).astype(np.int16)
    pixels[: used * spec.n] = matmul_embed(spec, head, symbols).reshape(-1)
    return GrayImage(img.width, img.height, pixels), used


def matmul_extract_bits(img, spec, bit_length):
    width = spec.payload_bits_operational
    used = -(-bit_length // width)
    groups = img.pixels[: used * spec.n].reshape(used, spec.n).astype(np.int16)
    symbols = matmul_values(spec, groups).astype(np.int64)
    bits = (symbols[:, None] >> np.arange(width - 1, -1, -1)) & 1
    return bits.astype(np.uint8).ravel()[:bit_length]


KERNEL_CONFIGS = CANONICAL_CONFIGS + [
    ("twoemd", {"n": 3}),
    ("egemd", {"n": 6, "n1": 2}),
    ("mpemd", {"n": 3, "key": 5}),
    # either side of the int16/int32 accumulator boundary: 255 * 85 + 256 < 2**15
    ("aemd", {"n": 4, "m": 4}),
    ("aemd", {"n": 5, "m": 4}),
    # the same with an odd M, which an int16 sum that wraps mod 2**16 would corrupt:
    # 255 * 120 < 2**15 <= 255 * 136
    ("emd", {"n": 15}),
    ("emd", {"n": 16}),
    # M = 183**2 exceeds int16; each part's values and digits stay below 183
    ("twoemd", {"n": 91}),
]


def wide_sum_spec():
    """255 * sum(base) >= 2**31 needs an int64 accumulator; the weights agree with emd n=2 mod 5."""
    return replace(make_scheme("emd", n=2), base=(1, 2 + 5 * 10**9))


def wide_split_spec():
    """Two int16 parts (255 * 18 < 2**15) of an M = 289**2 split.

    Its 16-bit symbols overflow int16 unless each part's value widens before
    * place, and wrap in int16 unless each digit is reduced mod 289.
    """
    sub = make_scheme("hemd", n=2, w=17, wbase=1)
    return replace(
        make_scheme("twoemd", n=2),
        base=sub.base * 2,
        modulus=sub.modulus**2,
        constraint=sub.constraint,
        sub_specs=(sub,),
    )


KERNEL_SPECS = [partial(make_scheme, name, **params) for name, params in KERNEL_CONFIGS] + [
    wide_sum_spec,
    wide_split_spec,
]
# z = 128 needs an int16 table; clamp_for_scheme rejects z > 127, so only the
# one-row wrappers, which embed into unclamped int64 rows, take this spec
WIDE_TABLE_SPEC = partial(make_scheme, "hemd", n=2, w=257, wbase=1)

# each pixel is uniform, or an edge of the 0..255 range or of a clamp to [z, 255 - z]
pixel_values = st.integers(0, 255) | st.sampled_from([0, 1, 2, 3, 252, 253, 254, 255])


class TestKernelMatchesMatmulReference:
    @given(build=st.sampled_from(KERNEL_SPECS), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_message_pipeline(self, build, data):
        spec = build()
        # at most about 1000 pixels in whole groups keeps the draw within Hypothesis's buffer
        groups = data.draw(st.integers(1, max(1, min(40, 1000 // spec.n))), label="groups")
        size = groups * spec.n + data.draw(st.integers(0, spec.n - 1), label="tail")
        pixels = data.draw(st.lists(pixel_values, min_size=size, max_size=size))
        img = GrayImage(size, 1, np.array(pixels, dtype=np.uint8))
        nbits = data.draw(st.integers(0, operational_capacity(img, spec)), label="nbits")
        bits = data.draw(st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits))
        bits = np.array(bits, dtype=np.uint8)

        cover_bytes = img.pixels.tobytes()
        clamped = []

        def clamp_spy(image, z):
            out = clamped_pixels(image, z)
            # a copy of the clamped cover as it stands before the kernel runs
            clamped.append((GrayImage(image.width, image.height, out), out.tobytes(), out))
            return out

        with mock.patch.object(schemes, "clamped_pixels", clamp_spy):
            stego, used = embed_message(img, spec, bits)
        assert (stego, used) == matmul_embed_message(img, spec, bits)
        # the kernel embeds in place into the one clamped buffer, which
        # becomes the stego image; the cover's buffer does not change
        ((clamped_img, clamped_bytes, buffer),) = clamped
        assert img.pixels.tobytes() == cover_bytes
        assert clamped_img.pixels.tobytes() == clamped_bytes
        assert clamped_img == clamp_for_scheme(img, spec.constraint.per_pixel_max)
        assert np.shares_memory(stego.pixels, buffer)
        assert not stego.pixels.flags.writeable
        assert not np.shares_memory(stego.pixels, img.pixels)
        assert not np.shares_memory(stego.pixels, clamped_img.pixels)

        got = extract_message(stego, spec, nbits)
        assert got == matmul_extract_bits(stego, spec, nbits).tolist()
        assert got == bits.tolist()

    @given(build=st.sampled_from(KERNEL_SPECS), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_byte_entry_points_match_bit_entry_points(self, build, data):
        spec = build()
        groups = data.draw(st.integers(1, max(1, min(40, 1000 // spec.n))), label="groups")
        size = groups * spec.n
        pixels = data.draw(st.lists(pixel_values, min_size=size, max_size=size))
        img = GrayImage(size, 1, np.array(pixels, dtype=np.uint8))
        nbits = data.draw(st.integers(0, operational_capacity(img, spec)), label="nbits")
        nbytes = -(-nbits // 8)
        raw = data.draw(st.binary(min_size=nbytes, max_size=nbytes + 2), label="raw")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=nbits)
        # pad bits past nbits, whatever they hold, embed as the bit path's zeros
        stego, used = embed_bytes(img, spec, raw, nbits)
        assert (stego, used) == embed_message(img, spec, bits)
        assert not np.shares_memory(stego.pixels, img.pixels)
        got = extract_bytes(stego, spec, nbits)
        assert got.dtype == np.uint8
        assert got.tobytes() == np.packbits(bits).tobytes()
        bits_out = extract_message(stego, spec, nbits)
        assert np.unpackbits(got, count=nbits).tolist() == bits_out

    @given(build=st.sampled_from(KERNEL_SPECS + [WIDE_TABLE_SPEC]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_row_wrappers(self, build, data):
        # int64 rows keep int64 sums, so values far outside 0..255 read as before
        spec = build()
        values = st.integers(-(2**40), 2**40) | pixel_values
        row = data.draw(st.lists(values, min_size=spec.n, max_size=spec.n))
        groups = np.array([row], dtype=np.int64)
        assert extraction_value(spec, row) == int(matmul_values(spec, groups)[0])
        symbol = data.draw(st.integers(0, spec.modulus - 1), label="symbol")
        expected = matmul_embed(spec, groups, np.array([symbol]))[0]
        assert embed_group(spec, row, symbol) == tuple(expected.tolist())

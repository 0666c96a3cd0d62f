from emdsteg.reported import (
    REPORTED_BOUND_DISTANCE,
    REPORTED_PROPOSED_EFFICIENCY,
    REPORTED_STANDARD_EFFICIENCY,
)
from emdsteg.schemes import SCHEME_NAMES, make_scheme

EXTERNAL_ONLY = {"appm", "pvd", "twofunc", "kirsch", "catalan", "rgemd", "eemdhw"}


def test_row_counts():
    assert len(REPORTED_STANDARD_EFFICIENCY) == 19
    assert len(REPORTED_PROPOSED_EFFICIENCY) == 20
    assert len(REPORTED_BOUND_DISTANCE) == 20


def test_every_scheme_id_is_known():
    known = set(SCHEME_NAMES) | EXTERNAL_ONLY
    for table in (
        REPORTED_STANDARD_EFFICIENCY,
        REPORTED_PROPOSED_EFFICIENCY,
        REPORTED_BOUND_DISTANCE,
    ):
        for row in table:
            assert row.scheme_id in known, row
            assert row.alpha > 0
            assert row.value > 0


def test_condition_params_are_buildable():
    # any parsed condition on an implemented scheme must construct, except
    # the split-scheme row whose quoted group size admits no feasible split
    for table in (REPORTED_STANDARD_EFFICIENCY, REPORTED_PROPOSED_EFFICIENCY):
        for row in table:
            if row.scheme_id not in SCHEME_NAMES or not row.params:
                continue
            params = dict(row.params)
            if row.scheme_id == "egemd" and params["n"] < 4:
                continue
            if row.scheme_id == "aemd":
                params.setdefault("n", 2)  # the quoted condition leaves n free
            spec = make_scheme(row.scheme_id, **params)
            assert spec.id == row.scheme_id


def test_payloads_sorted_within_tables():
    for table in (
        REPORTED_STANDARD_EFFICIENCY,
        REPORTED_PROPOSED_EFFICIENCY,
        REPORTED_BOUND_DISTANCE,
    ):
        alphas = [row.alpha for row in table]
        assert alphas == sorted(alphas)

"""The table-build schemes' tables match the digests the benchmark records.

perfbench/worker.py digests json.dumps([solver_table, embed_table, [subs]])
of each table-build scheme; a table that changes would otherwise surface
only in a benchmark run. The recorded digests are read, never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from emdsteg.schemes import make_scheme

EXPECTED_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

# (run size, scheme, params) of every table-build scheme
TABLE_BUILD_SCHEMES = [
    ("full", "gemd", {"n": 10}),
    ("full", "gemd", {"n": 12}),
    ("full", "aemd", {"n": 8, "m": 4}),
    ("full", "egemd", {"n": 8}),
    ("smoke", "gemd", {"n": 4}),
    ("smoke", "aemd", {"n": 2, "m": 4}),
    ("smoke", "egemd", {"n": 4}),
]


def table_json(spec) -> bytes:
    def tables(s):
        return [s.solver_table, s.embed_table, [tables(sub) for sub in s.sub_specs]]

    return json.dumps(tables(spec)).encode()


@pytest.mark.parametrize("size,name,params", TABLE_BUILD_SCHEMES)
def test_tables_match_recorded_digest(size, name, params):
    digests = json.loads(EXPECTED_PATH.read_text())[size]["table-build"]["digest"]
    want = digests[f"tables {name}:{params}"]
    got = hashlib.sha256(table_json(make_scheme(name, **params))).hexdigest()
    assert got == want

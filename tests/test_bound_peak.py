import tracemalloc

from emdsteg import cli
from emdsteg.bound import frontier


def _peak(call, *args):
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_frontier_peak_holds_only_the_envelope():
    # 7 260 swept points with sums up to 3^120: holding every point's exact
    # sums until one sort peaks at about 2.4 MiB, the envelope and one block
    # at 0.4
    envelope, peak = _peak(frontier, range(1, 121), [1])
    assert len(envelope) > 1
    assert peak <= 1.5 * 2**20


def test_bound_table_peak_streams_rows(tmp_path):
    # 15 000 rows: joined before writing they peak at about 5.2 MiB, written
    # as they are made at 0.3
    out = tmp_path / "bound.csv"
    code, peak = _peak(cli.main, ["bound", "--max-n", "2", "--max-z", "3000", "--out", str(out)])
    assert code == 0
    assert out.read_text().count("\n") == 15_001
    assert peak <= 2 * 2**20

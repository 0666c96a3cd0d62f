import tracemalloc

from emdsteg.schemes import make_scheme


def test_table_build_peak_stays_sized_to_its_table():
    # the search's ranks, reached states and one-byte choices, then the
    # table and the intp states of the read-back: a few table sizes, where
    # intp choices alone would take eight
    solver_bytes = make_scheme("aemd", n=8, m=4).solver_array.nbytes
    tracemalloc.start()
    try:
        make_scheme("aemd", n=8, m=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * solver_bytes

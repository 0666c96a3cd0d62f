import tracemalloc

from emdsteg.rng import seeded_bytes


def test_seeded_bytes_peak_stays_near_its_output():
    # the words and one scratch array of the same size, then the output
    count = (1 << 20) + 3
    tracemalloc.start()
    try:
        data = seeded_bytes(5, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == count
    assert peak <= 2.5 * count

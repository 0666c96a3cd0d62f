import tracemalloc

from emdsteg.metrics import theoretical_distortion
from emdsteg.schemes import make_scheme


def test_distortion_peak_stays_below_its_table():
    # the row L1 accumulator and one column's magnitudes: less than the
    # 65536 x 8 int8 table the sums are read from
    spec = make_scheme("aemd", n=8, m=4)
    tracemalloc.start()
    try:
        theoretical_distortion(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spec.embed_array.nbytes

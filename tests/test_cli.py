import argparse
import contextlib
import csv
import importlib
import inspect
import io
import json
import pkgutil
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import emdsteg
from emdsteg import bench as bench_mod
from emdsteg import bound as bound_mod
from emdsteg import cli
from emdsteg.bench import BenchConfigError, _fmt
from emdsteg.cli import CliDataError, build_parser, main
from emdsteg.image import GrayImage, PgmError, save_pgm
from emdsteg.metrics import DimensionMismatch, MetricsError
from emdsteg.rng import seeded_bits, seeded_bytes
from emdsteg.schemes import SchemeError, embed_message, make_scheme

SCHEME_ARGS = {
    "emd": ["--n", "2"],
    "iemd": [],
    "pva": ["--t", "2"],
    "femd": ["--t", "2"],
    "de": ["--k", "1"],
    "mpemd": ["--n", "2", "--key", "1"],
    "emd2": ["--n", "2"],
    "twoemd": ["--n", "2"],
    "gemd": ["--n", "2"],
    "egemd": ["--n", "4"],
    "mbe": ["--n", "2", "--k", "1"],
    "msd": ["--n", "3"],
    "hemd": ["--n", "3", "--w", "3"],
    "aemd": ["--n", "2", "--m", "4"],
}


def run(*args) -> int:
    return main([str(a) for a in args])


def _readme_commands() -> list[list[str]]:
    """The argv of every emdsteg line in README's fenced blocks, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands, fenced = [], False
    for line in readme.replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("emdsteg "):
            commands.append(shlex.split(line)[1:])
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    build_parser().parse_args(argv)


class TestEmbedExtract:
    def test_round_trip_with_message_file(self, tmp_path):
        message = tmp_path / "msg.bin"
        message.write_bytes(bytes(range(32)))
        stego = tmp_path / "stego.pgm"
        out = tmp_path / "recovered.bin"
        assert (
            run(
                "embed", "--scheme", "emd", "--n", 2,
                "--synthetic", "64x64:128", "--message", message, "--out", stego,
            )
            == 0
        )
        sidecar = json.loads((tmp_path / "stego.pgm.json").read_text())
        assert sidecar["bit_length"] == 256
        assert sidecar["scheme"] == "emd"
        assert (
            run(
                "extract", "--scheme", "emd", "--n", 2,
                "--stego", stego, "--bits", 256, "--out", out,
            )
            == 0
        )
        assert out.read_bytes() == message.read_bytes()

    @pytest.mark.parametrize("scheme", sorted(SCHEME_ARGS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_fill_round_trip_every_scheme(self, tmp_path, scheme, seed):
        from emdsteg.schemes import make_scheme, operational_capacity

        flags = SCHEME_ARGS[scheme]
        params = {
            flags[i].lstrip("-"): int(flags[i + 1]) for i in range(0, len(flags), 2)
        }
        spec = make_scheme(scheme, **params)
        cover = GrayImage.flat(spec.n * 8, 8, 120)
        nbits = operational_capacity(cover, spec)
        cover_path = tmp_path / "cover.pgm"
        cover_path.write_bytes(save_pgm(cover))
        stego = tmp_path / "stego.pgm"
        out = tmp_path / "got.bin"
        assert (
            run(
                "embed", "--scheme", scheme, *flags,
                "--cover", cover_path, "--random-bits", nbits, "--seed", seed,
                "--out", stego,
            )
            == 0
        )
        assert (
            run(
                "extract", "--scheme", scheme, *flags,
                "--stego", stego, "--bits", nbits, "--out", out,
            )
            == 0
        )
        bits = seeded_bits(seed, nbits)
        packed = bytearray()
        for start in range(0, len(bits), 8):
            byte = 0
            chunk = bits[start : start + 8]
            for bit in chunk:
                byte = (byte << 1) | bit
            packed.append(byte << (8 - len(chunk)))
        assert out.read_bytes() == bytes(packed)

    def test_random_bits_pad_bits_extract_as_zeros(self, tmp_path):
        # 13 bits take the top 5 of seeded_bytes(5, 2)[1] == 0x03; the
        # other 3 are pad bits, embedded as zeros and written as zeros
        assert seeded_bytes(5, 2) == b"\x63\x03"
        stego, out = tmp_path / "s.pgm", tmp_path / "m.bin"
        assert run("embed", "--scheme", "emd", "--n", 2, "--synthetic", "4x4:128",
                   "--random-bits", 13, "--seed", 5, "--out", stego) == 0
        sidecar = json.loads((tmp_path / "s.pgm.json").read_text())
        assert (sidecar["bit_length"], sidecar["seed"]) == (13, 5)
        expected, _ = embed_message(GrayImage.flat(4, 4, 128), make_scheme("emd", n=2),
                                    seeded_bits(5, 13))
        assert stego.read_bytes() == save_pgm(expected)
        assert run("extract", "--scheme", "emd", "--n", 2, "--stego", stego,
                   "--bits", 13, "--out", out) == 0
        assert out.read_bytes() == b"\x63\x00"

    def test_random_bits_without_seed_use_seed_0(self, tmp_path):
        stego = tmp_path / "s.pgm"
        assert run("embed", "--scheme", "emd", "--n", 2, "--synthetic", "4x4:128",
                   "--random-bits", 13, "--out", stego) == 0
        sidecar = json.loads((tmp_path / "s.pgm.json").read_text())
        assert (sidecar["bit_length"], sidecar["seed"]) == (13, 0)
        expected, _ = embed_message(GrayImage.flat(4, 4, 128), make_scheme("emd", n=2),
                                    seeded_bits(0, 13))
        assert stego.read_bytes() == save_pgm(expected)

    def test_message_file_round_trip_at_capacity(self, tmp_path):
        message, stego, out = tmp_path / "msg.bin", tmp_path / "s.pgm", tmp_path / "m.bin"
        message.write_bytes(b"\xa7\x01")
        assert run("embed", "--scheme", "emd", "--n", 2, "--synthetic", "4x4:128",
                   "--message", message, "--out", stego) == 0
        sidecar = json.loads((tmp_path / "s.pgm.json").read_text())
        assert (sidecar["bit_length"], sidecar["seed"]) == (16, None)
        assert run("extract", "--scheme", "emd", "--n", 2, "--stego", stego,
                   "--bits", 16, "--out", out) == 0
        assert out.read_bytes() == b"\xa7\x01"
        assert run("extract", "--scheme", "emd", "--n", 2, "--stego", stego,
                   "--bits", 12, "--out", out) == 0
        assert out.read_bytes() == b"\xa7\x00"

    def test_zero_bits_extract(self, tmp_path):
        stego = tmp_path / "s.pgm"
        stego.write_bytes(save_pgm(GrayImage.flat(4, 4, 50)))
        out = tmp_path / "o.bin"
        assert run("extract", "--scheme", "emd", "--n", 2, "--stego", stego,
                   "--bits", 0, "--out", out) == 0
        assert out.read_bytes() == b""


class TestExitCodes:
    def test_capacity_exceeded_is_usage_error(self, tmp_path):
        assert (
            run(
                "embed", "--scheme", "emd", "--n", 2,
                "--synthetic", "4x4:128", "--random-bits", 10_000,
                "--out", tmp_path / "x.pgm",
            )
            == 2
        )

    def test_huge_random_bits_fail_before_drawing(self, tmp_path, capsys):
        # 10^14 bytes of message would not fit in memory
        out = tmp_path / "x.pgm"
        assert run("embed", "--scheme", "emd", "--n", 2, "--synthetic", "4x4:128",
                   "--random-bits", 800_000_000_000_000, "--out", out) == 2
        assert capsys.readouterr().err == "error: 800000000000000 bits > capacity 16\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", [10_000, 30_000])
    def test_oversize_change_budget_is_one_line(self, tmp_path, capsys, n):
        # the cost is named by its log2: in decimal it would have thousands of digits
        log2 = {10_000: "10015.2", 30_000: "30016.8"}[n]
        out = tmp_path / "s.pgm"
        assert run("embed", "--scheme", "gemd", "--n", n, "--synthetic", "4x4:128",
                   "--random-bits", 1, "--out", out) == 2
        assert capsys.readouterr() == (
            "", f"error: table search needs at least 2^{log2} bytes, over the limit of 2^27\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["emd", "mpemd"])
    def test_oversize_table_is_one_line(self, tmp_path, capsys, scheme):
        # one change per group, but 100 000 choice arrays of about 200 000 bytes
        out = tmp_path / "s.pgm"
        assert run("embed", "--scheme", scheme, "--n", 100_000, "--synthetic", "4x4:128",
                   "--random-bits", 1, "--out", out) == 2
        assert capsys.readouterr() == (
            "", "error: table search needs at least 2^35.2 bytes, over the limit of 2^27\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,log2,peak",
        [
            # moduli of 10^10 and 1.6 * 10^9 bits, refused on n before they exist
            (["gemd", "--n", 10**10], "41.5", 2**20),
            (["aemd", "--n", 10**9, "--m", 3], "38.2", 2**20),
            # z = 2^k - 1 is made with the budget and priced before it is cubed:
            # at k = 10^8 the peak is a few copies of z's 12.5 MB, not its cube
            (["mbe", "--n", 2, "--k", 10**6], "1000007.3", 2**20),
            (["mbe", "--n", 2, "--k", 10**8], "100000007.3", 8 * 10**8 // 8),
        ],
    )
    def test_huge_group_is_refused_at_once(self, tmp_path, capsys, args, log2, peak):
        out = tmp_path / "s.pgm"
        tracemalloc.start()
        try:
            assert run("embed", "--scheme", *args, "--synthetic", "4x4:128",
                       "--random-bits", 1, "--out", out) == 2
            got = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == (
            "", f"error: table search needs at least 2^{log2} bytes, over the limit of 2^27\n"
        )
        assert got < peak
        assert not out.exists()

    def test_unknown_scheme(self, tmp_path):
        assert (
            run(
                "embed", "--scheme", "bogus", "--synthetic", "4x4:128",
                "--random-bits", 4, "--out", tmp_path / "x.pgm",
            )
            == 2
        )

    def test_malformed_pgm_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P4\n1 1\n255\n\x00")
        assert (
            run("extract", "--scheme", "emd", "--n", 2, "--stego", bad,
                "--bits", 0, "--out", tmp_path / "o.bin")
            == 3
        )

    def test_missing_file_is_data_error(self, tmp_path):
        assert (
            run("extract", "--scheme", "emd", "--n", 2,
                "--stego", tmp_path / "absent.pgm", "--bits", 0,
                "--out", tmp_path / "o.bin")
            == 3
        )

    def test_oversized_extract_is_usage_error(self, tmp_path):
        stego = tmp_path / "s.pgm"
        stego.write_bytes(save_pgm(GrayImage.flat(4, 4, 50)))
        assert (
            run("extract", "--scheme", "emd", "--n", 2, "--stego", stego,
                "--bits", 1000, "--out", tmp_path / "o.bin")
            == 2
        )

    def test_bad_usage(self):
        assert run("embed", "--scheme") == 2

    @pytest.mark.parametrize("target", ["existing-file", "under-a-file", "csv-is-a-directory"])
    def test_unwritable_bench_out_dir_is_data_error(self, tmp_path, target, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        # the output directory, and the path and reason the error names
        out_dir, named, reason = {
            "existing-file": (blocker, blocker, "File exists"),
            "under-a-file": (blocker / "out", blocker / "out", "Not a directory"),
            "csv-is-a-directory": (tmp_path / "out", tmp_path / "out" / "table3.csv",
                                   "Is a directory"),
        }[target]
        if target == "csv-is-a-directory":
            (out_dir / "table3.csv").mkdir(parents=True)
        config = tmp_path / "cfg.json"
        cover = {"kind": "flat", "width": 16, "height": 16, "value": 128}
        config.write_text(json.dumps({"cover": cover}))
        assert run("bench", "--config", config, "--out-dir", out_dir) == 3
        assert capsys.readouterr() == ("", f"error: {named}: {reason}\n")

    def test_undecodable_bench_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"seed": 1, "note": "\xff"}')
        assert run("bench", "--config", config, "--out-dir", tmp_path / "out") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {config}: undecodable text: ")
        assert out.err.count("\n") == 1

    def test_non_pgm_config_cover_is_data_error(self, tmp_path, capsys):
        # the config is well formed; the file it names is bad data, as for embed --cover
        cover = tmp_path / "cover.pgm"
        cover.write_bytes(b"not a pgm")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cover": {"kind": "file", "path": str(cover)}}))
        assert run("bench", "--config", config, "--out-dir", tmp_path / "out") == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {cover}: not a binary PGM (magic b'not')")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["embed --cover", "extract --stego"])
    def test_non_pgm_image_names_the_file(self, flag, tmp_path, capsys):
        image = tmp_path / "c.pgm"
        image.write_bytes(b"not a pgm")
        command, option = flag.split()
        tail = ("--random-bits", 4) if command == "embed" else ("--bits", 4)
        code = run(command, "--scheme", "emd", "--n", 2, option, image, *tail,
                   "--out", tmp_path / "o")
        assert code == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {image}: not a binary PGM (magic b'not')\n"

    def test_bad_bound_range(self, tmp_path):
        assert run("bound", "--max-n", 0, "--max-z", 1,
                   "--out", tmp_path / "b.csv") == 2

    @pytest.mark.parametrize("frontier", [[], ["--frontier"]], ids=["table", "frontier"])
    def test_bound_past_float_range(self, tmp_path, capsys, frontier):
        # 9^n state counts pass the float range from n = 321 on
        out = tmp_path / "b.csv"
        assert run("bound", "--max-n", 400, "--max-z", 4, *frontier, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: n=321 z=4: state counts overflow a float\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("frontier", [[], ["--frontier"]], ids=["table", "frontier"])
    def test_bound_edge_checked_before_sweeping(self, tmp_path, capsys, monkeypatch, frontier):
        # 3^n passes the float range from n = 641 on; no running sum is started
        def no_running_sums(n, z, q):
            raise AssertionError(f"_running_sums({n}, {z}, {q}) ran past the edge")

        monkeypatch.setattr(bound_mod, "_running_sums", no_running_sums)
        out = tmp_path / "b.csv"
        assert run("bound", "--max-n", 100000, "--max-z", 1, *frontier, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: n=641 z=1: state counts overflow a float\n"
        )
        assert not out.exists()


# every error class emdsteg defines, and the exit code the CLI maps it to
_EXIT_CODES = {
    SchemeError: 2,
    PgmError: 3,
    MetricsError: 2,
    DimensionMismatch: 3,
    bound_mod.BoundError: 2,
    BenchConfigError: 2,
    CliDataError: 3,
}


class TestErrorClasses:
    def test_every_error_class_is_mapped(self):
        defined = set()
        for info in pkgutil.iter_modules(emdsteg.__path__):
            if info.name == "__main__":
                continue  # importing it runs the CLI
            module = importlib.import_module(f"emdsteg.{info.name}")
            defined |= {
                obj for _, obj in inspect.getmembers(module, inspect.isclass)
                if issubclass(obj, BaseException) and obj.__module__ == module.__name__
            }
        assert defined == set(_EXIT_CODES)

    @pytest.mark.parametrize(
        # an OSError that names no file prints as it is
        "error,code", [*_EXIT_CODES.items(), (ValueError, 2), (OSError, 3)],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_exit_code_map(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("bad input")

        monkeypatch.setattr(cli, "_cmd_distance", fail)
        assert run("distance", "--eq43", "--x", 1, "--y", 1) == code
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: bad input\n"

    # a size from a flag or a config that does not fit in memory; the
    # builders are patched, so no test asks for the real array
    @pytest.mark.parametrize("target", ["subcommand", "embed-synthetic", "bench-noise"])
    def test_memory_error_is_usage_error(self, monkeypatch, capsys, tmp_path, target):
        message = "Unable to allocate 37.3 GiB for an array with shape (200000, 200000)"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        if target == "subcommand":
            monkeypatch.setattr(cli, "_cmd_distance", fail)
            argv = ["distance", "--eq43", "--x", 1, "--y", 1]
        elif target == "embed-synthetic":
            monkeypatch.setattr(GrayImage, "flat", fail)
            argv = ["embed", "--scheme", "emd", "--n", 2, "--synthetic",
                    "200000x200000:100", "--random-bits", 4, "--out", tmp_path / "o.pgm"]
        else:
            monkeypatch.setattr(bench_mod, "noise_image", fail)
            config = tmp_path / "cfg.json"
            cover = {"kind": "noise", "width": 200000, "height": 200000}
            config.write_text(json.dumps({"cover": cover}))
            argv = ["bench", "--config", config, "--out-dir", tmp_path / "out"]
        assert run(*argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: out of memory: {message}\n"
        written = {path.name for path in tmp_path.iterdir()}
        assert written == ({"cfg.json"} if target == "bench-noise" else set())

    def test_bare_memory_error_is_one_line(self, monkeypatch, capsys):
        def fail(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_distance", fail)
        assert run("distance", "--eq43", "--x", 1, "--y", 1) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["extract", "--scheme", "emd", "--n", 2, "--stego", "@image", "--bits", -1],
             "--bits must be >= 0"),
            (["embed", "--scheme", "emd", "--n", 2, "--cover", "@image", "--random-bits", -1],
             "--random-bits must be >= 0"),
            (["embed", "--scheme", "emd", "--n", 2, "--cover", "@image"],
             "need --message PATH or --random-bits N"),
            (["embed", "--scheme", "emd", "--n", 2, "--synthetic", "4x4:50",
              "--message", "@image", "--random-bits", 4, "--seed", 9],
             "give --message PATH or --random-bits N, not both"),
            (["embed", "--scheme", "emd", "--n", 2, "--synthetic", "8x8:100",
              "--cover", "@image", "--random-bits", 4],
             "give --cover PATH or --synthetic WxH:V, not both"),
            (["embed", "--scheme", "emd", "--n", 2, "--synthetic", "4x4:50",
              "--message", "@image", "--seed", 9],
             "give --seed only with --random-bits"),
            (["embed", "--scheme", "emd", "--n", 2, "--synthetic", "8x8",
              "--message", "@image"],
             "--synthetic wants WxH:V, got '8x8'"),
            (["embed", "--scheme", "emd", "--n", 2, "--t", 3, "--cover", "@image",
              "--random-bits", 4],
             "emd: unknown parameter 't'"),
        ],
        ids=["extract-negative-bits", "embed-negative-random-bits", "embed-no-message",
             "embed-message-and-random-bits", "embed-cover-and-synthetic",
             "embed-message-and-seed", "embed-synthetic-without-value",
             "embed-unknown-parameter"],
    )
    @pytest.mark.parametrize("present", [False, True], ids=["missing", "present"])
    def test_usage_error_before_reading(self, tmp_path, capsys, argv, message, present):
        image = tmp_path / "c.pgm"
        if present:
            image.write_bytes(save_pgm(GrayImage.flat(4, 4, 50)))
        out = tmp_path / "o"
        argv = [image if token == "@image" else token for token in argv]
        assert run(*argv, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "argv",
        [
            ["embed", "--scheme", "emd", "--n", 2, "--cover", "@absent",
             "--random-bits", 4, "--out", "@out"],
            ["embed", "--scheme", "emd", "--n", 2, "--synthetic", "4x4:50",
             "--message", "@absent", "--out", "@out"],
            ["extract", "--scheme", "emd", "--n", 2, "--stego", "@absent",
             "--bits", 4, "--out", "@out"],
            ["analyze", "--scheme", "emd", "--n", 2, "--cover", "@absent",
             "--stego", "@image"],
            ["analyze", "--scheme", "emd", "--n", 2, "--cover", "@image",
             "--stego", "@image", "--bound-poly", "@absent"],
            ["bench", "--config", "@absent", "--out-dir", "@out"],
            ["distance", "--poly", "@absent", "--x", 1, "--y", 1],
            ["fit", "--points", "@absent"],
            # outputs into a directory that does not exist
            ["embed", "--scheme", "emd", "--n", 2, "--synthetic", "4x4:50",
             "--random-bits", 4, "--out", "@absent/o"],
            ["extract", "--scheme", "emd", "--n", 2, "--stego", "@image",
             "--bits", 4, "--out", "@absent/o"],
            ["bound", "--max-n", 2, "--max-z", 2, "--out", "@absent/o"],
        ],
        ids=["embed-cover", "embed-message", "extract-stego", "analyze-cover",
             "analyze-bound-poly", "bench-config", "distance-poly", "fit-points",
             "embed-out", "extract-out", "bound-out"],
    )
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, argv):
        image = tmp_path / "c.pgm"
        image.write_bytes(save_pgm(GrayImage.flat(4, 4, 50)))
        absent, out = tmp_path / "absent", tmp_path / "o"
        places = {"@absent": absent, "@absent/o": absent / "o", "@image": image, "@out": out}
        named = places["@absent/o" if "@absent/o" in argv else "@absent"]
        assert run(*(places.get(token, token) for token in argv)) == 3
        assert capsys.readouterr() == ("", f"error: {named}: No such file or directory\n")
        assert not out.exists() and not absent.exists()

    @pytest.mark.parametrize(
        "bits,code,message",
        [
            (2, 3, "@stego: symbol 4 wider than 2 bits"),
            (3, 2, "3 bits > capacity 2"),
        ],
        ids=["undecodable-group", "over-capacity"],
    )
    def test_extract_bad_stego_is_data_error(self, tmp_path, capsys, bits, code, message):
        # residue 4 mod 5 has no 2-bit symbol: the fault is in the image
        stego, out = tmp_path / "r.pgm", tmp_path / "m.bin"
        stego.write_bytes(save_pgm(GrayImage(2, 1, [4, 0])))
        assert run("extract", "--scheme", "emd", "--n", 2, "--stego", stego,
                   "--bits", bits, "--out", out) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + message.replace("@stego", str(stego)) + "\n"
        assert not out.exists()


class TestAnalyze:
    def test_identical_pair(self, tmp_path, capsys):
        path = tmp_path / "img.pgm"
        path.write_bytes(save_pgm(GrayImage.flat(8, 8, 77)))
        assert run("analyze", "--scheme", "emd", "--n", 2,
                   "--cover", path, "--stego", path) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mse"] == 0.0
        assert record["psnr_db"] == "inf"
        assert record["eff_proposed"] is None
        assert record["provenance"] == "computed"

    def test_infinite_values_keep_their_sign(self):
        assert cli._json_value(float("inf")) == "inf"
        assert cli._json_value(float("-inf")) == "-inf"

    def test_poly_is_read_for_an_identical_pair(self, tmp_path, capsys):
        path = tmp_path / "img.pgm"
        path.write_bytes(save_pgm(GrayImage.flat(8, 8, 77)))
        poly = tmp_path / "missing.json"
        assert run("analyze", "--scheme", "emd", "--n", 2, "--cover", path,
                   "--stego", path, "--bound-poly", poly) == 3
        assert capsys.readouterr() == ("", f"error: {poly}: No such file or directory\n")

    def test_distance_for_on_curve_point(self, tmp_path, capsys):
        # a stego pair whose proposed efficiency is irrelevant; checks the
        # distance plumbing with an explicit polynomial file
        cover = tmp_path / "c.pgm"
        stego = tmp_path / "s.pgm"
        cover.write_bytes(save_pgm(GrayImage(2, 1, [100, 100])))
        stego.write_bytes(save_pgm(GrayImage(2, 1, [101, 100])))
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"c3": 0.0, "c2": 0.0, "c1": 0.0, "c0": 0.0}))
        assert run("analyze", "--scheme", "emd", "--n", 2, "--cover", cover,
                   "--stego", stego, "--bound-poly", poly, "--mode", "vertical") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["distance"] == pytest.approx(record["eff_proposed"])

    def test_domain_reads_negative_e_notation(self, tmp_path, capsys):
        cover = tmp_path / "c.pgm"
        stego = tmp_path / "s.pgm"
        cover.write_bytes(save_pgm(GrayImage(2, 1, [100, 100])))
        stego.write_bytes(save_pgm(GrayImage(2, 1, [101, 100])))
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"c3": 0.0, "c2": 0.0, "c1": 1.0, "c0": 0.0}))
        assert run("analyze", "--scheme", "emd", "--n", 2, "--cover", cover,
                   "--stego", stego, "--bound-poly", poly, "--domain", "-1e1", "-5E-1") == 0
        record = json.loads(capsys.readouterr().out)
        want = bound_mod.distance_to_curve(
            bound_mod.CubicPoly(0.0, 0.0, 1.0, 0.0),
            (record["alpha"], record["eff_proposed"]),
            "euclidean",
            (-10.0, -0.5),
        )
        assert record["distance"] == want

    @pytest.mark.parametrize(
        "domain,error",
        [
            ((3, 0), "domain [3.0, 0.0] is empty"),
            ((1, 1), "domain [1.0, 1.0] is empty"),
            (("nan", 3), "domain [nan, 3.0] must be finite"),
            ((0, "-inf"), "domain [0.0, -inf] must be finite"),
        ],
    )
    @pytest.mark.parametrize("poly", [False, True], ids=["no-poly", "poly"])
    @pytest.mark.parametrize("pair", ["identical", "differing"])
    def test_bad_domain_is_usage_error(self, tmp_path, capsys, domain, error, poly, pair):
        # checked up front, whether or not a distance is computed
        cover = tmp_path / "c.pgm"
        stego = tmp_path / "s.pgm"
        cover.write_bytes(save_pgm(GrayImage(2, 1, [100, 100])))
        stego_pixels = [100, 100] if pair == "identical" else [101, 100]
        stego.write_bytes(save_pgm(GrayImage(2, 1, stego_pixels)))
        args = ["--cover", cover, "--stego", stego, "--domain", *domain]
        if poly:
            path = tmp_path / "poly.json"
            path.write_text(json.dumps({"c3": 0.0, "c2": 0.0, "c1": 1.0, "c0": 0.0}))
            args += ["--bound-poly", path]
        assert run("analyze", "--scheme", "emd", "--n", 2, *args) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {error}\n"

    def test_bad_domain_is_checked_before_the_inputs(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run("analyze", "--scheme", "emd", "--n", 2, "--cover", missing,
                   "--stego", missing, "--domain", 3, 0) == 2
        assert capsys.readouterr().err == "error: domain [3.0, 0.0] is empty\n"
        assert run("distance", "--poly", missing, "--x", 1, "--y", 1,
                   "--domain", 3, 0) == 2
        assert capsys.readouterr().err == "error: domain [3.0, 0.0] is empty\n"

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        a.write_bytes(save_pgm(GrayImage.flat(2, 2, 0)))
        b.write_bytes(save_pgm(GrayImage.flat(4, 1, 0)))
        assert run("analyze", "--scheme", "emd", "--n", 2,
                   "--cover", a, "--stego", b) == 3


class TestBoundCommand:
    def test_small_table(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert run("bound", "--max-n", 2, "--max-z", 1, "--out", out) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        key = [(r["n"], r["z"], r["q"], r["f_M"]) for r in rows]
        assert key == [
            ("1", "1", "0", "1"),
            ("1", "1", "1", "3"),
            ("2", "1", "0", "1"),
            ("2", "1", "1", "5"),
            ("2", "1", "2", "9"),
        ]
        degenerate = [r for r in rows if r["q"] == "0"]
        assert all(r["eff"] == "" for r in degenerate)

    def test_frontier_subset(self, tmp_path):
        table = tmp_path / "table.csv"
        envelope = tmp_path / "env.csv"
        assert run("bound", "--max-n", 4, "--max-z", 2, "--out", table) == 0
        assert run("bound", "--max-n", 4, "--max-z", 2, "--frontier",
                   "--out", envelope) == 0
        env_rows = list(csv.DictReader(envelope.read_text().splitlines()))
        effs = [float(r["eff"]) for r in env_rows]
        assert effs == sorted(effs)
        table_keys = {
            (r["n"], r["z"], r["q"])
            for r in csv.DictReader(table.read_text().splitlines())
        }
        assert all((r["n"], r["z"], r["q"]) in table_keys for r in env_rows)


    def test_counts_computed_once_per_n_z(self, tmp_path, monkeypatch):
        sums = []
        running_sums = bound_mod._running_sums
        monkeypatch.setattr(
            bound_mod,
            "_running_sums",
            lambda n, z, q: sums.append((n, z, q)) or running_sums(n, z, q),
        )

        def no_bound_point(*query):
            raise AssertionError(f"bound_point{query} recounted a swept query")

        monkeypatch.setattr(bound_mod, "bound_point", no_bound_point)
        out = tmp_path / "bound.csv"
        # both modes: one running sum over every quota per (n, z), in order
        every_n_z = [(n, z, n) for n in range(1, 4) for z in range(1, 3)]
        assert run("bound", "--max-n", 3, "--max-z", 2, "--out", out) == 0
        assert sums == every_n_z
        sums.clear()
        assert run("bound", "--max-n", 3, "--max-z", 2, "--frontier", "--out", out) == 0
        assert sums == every_n_z

    @pytest.mark.parametrize("metric", ["standard", "proposed"])
    @pytest.mark.parametrize("normalization", ["literal", "mean", "mean-per-pixel"])
    def test_table_matches_per_query_rows(self, tmp_path, metric, normalization):
        # reference rows from one bound_point call per query
        lines = ["n,z,q,f_M,f_rho_lin,f_rho_sq,alpha,inv_alpha,eff,metric,normalization"]
        for n in range(1, 13):
            for z in range(1, 7):
                for q in range(n + 1):
                    *row, values = bound_mod.bound_point(n, z, q, normalization)
                    floats = (None, None, None)
                    if values is not None:  # the degenerate query has none
                        eff = values[3 if metric == "proposed" else 2]
                        floats = (values[0], values[1], eff)
                    cells = (*row, *floats, metric, normalization)
                    lines.append(",".join(_fmt(cell) for cell in cells))
        out = tmp_path / "bound.csv"
        assert run("bound", "--max-n", 12, "--max-z", 6, "--metric", metric,
                   "--normalization", normalization, "--out", out) == 0
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestFitDistance:
    def test_distance_on_reference_curve(self, capsys):
        assert run("distance", "--eq43", "--x", 0, "--y", -1.098,
                   "--mode", "vertical") == 0
        assert float(capsys.readouterr().out) == 0.0

    @pytest.mark.parametrize("present", [False, True], ids=["missing", "present"])
    def test_poly_and_eq43_is_usage_error(self, tmp_path, capsys, present):
        poly = tmp_path / "poly.json"
        if present:
            poly.write_text(json.dumps({"c3": 1, "c2": 0, "c1": 0, "c0": 0}))
        assert run("distance", "--eq43", "--poly", poly, "--x", 1, "--y", 1) == 2
        assert capsys.readouterr() == ("", "error: give --poly PATH or --eq43, not both\n")

    def test_distance_euclidean_matches_module(self, capsys):
        from emdsteg.bound import REFERENCE_BOUND_POLY, distance_to_curve

        assert run("distance", "--eq43", "--x", 1.5, "--y", 1.9) == 0
        got = float(capsys.readouterr().out)
        want = distance_to_curve(REFERENCE_BOUND_POLY, (1.5, 1.9))
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "args",
        [
            ("--x", "nan", "--y", 1),
            ("--x", 1, "--y", "nan"),
            ("--x", "inf", "--y", 1),
            ("--x", 1, "--y", 1, "--domain", 0, "inf"),
            ("--x", 1, "--y", 1, "--domain", "nan", 3),
            ("--x", "inf", "--y", 1, "--mode", "vertical"),
        ],
    )
    def test_distance_rejects_non_finite(self, args, capsys):
        assert run("distance", "--eq43", *args) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "args,point,domain",
        [
            (("--x", "-1e-3", "--y", 1), (-1e-3, 1.0), (0.0, 3.0)),
            (("--x", 1, "--y", "-1E+1"), (1.0, -10.0), (0.0, 3.0)),
            (("--x", "-.5e1", "--y", 1, "--mode", "vertical"), (-5.0, 1.0), (0.0, 3.0)),
            (("--x", 1, "--y", 1, "--domain", "-1e1", 3), (1.0, 1.0), (-10.0, 3.0)),
            (("--domain", "-2.5e0", "-1.e-1", "--x", 0, "--y", 0), (0.0, 0.0), (-2.5, -0.1)),
        ],
    )
    def test_distance_reads_negative_e_notation(self, args, point, domain, capsys):
        from emdsteg.bound import REFERENCE_BOUND_POLY, distance_to_curve

        mode = "vertical" if "vertical" in args else "euclidean"
        assert run("distance", "--eq43", *args) == 0
        want = distance_to_curve(REFERENCE_BOUND_POLY, point, mode, domain)
        assert capsys.readouterr().out == f"{want:.12g}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("--x", "-inf", "--y", 1),
            ("--x", 1, "--y", "-Infinity"),
            ("--x", "-NaN", "--y", 1, "--mode", "vertical"),
            ("--x", 1, "--y", 1, "--domain", "-INF", 3),
        ],
    )
    def test_negative_non_finite_reaches_validation(self, args, capsys):
        # read as a value, so the same one-line error as "--x inf"
        assert run("distance", "--eq43", *args) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert out.err.endswith("must be finite\n")

    def test_negative_e_notation_reaches_validation(self, tmp_path, capsys):
        # read as a value, so the option's own check reports it
        assert run("distance", "--eq43", "--x", 1, "--y", 1,
                   "--domain", "-1e-3", "-2e-3") == 2
        assert capsys.readouterr().err == "error: domain [-0.001, -0.002] is empty\n"
        assert run("bound", "--max-n", "-1e1", "--max-z", 1,
                   "--out", tmp_path / "b.csv") == 2
        assert "invalid int value: '-1e1'" in capsys.readouterr().err

    def test_help_and_flags_still_parse(self, capsys):
        assert run("distance", "-h") == 0
        assert capsys.readouterr().out.startswith("usage: emdsteg distance")
        # a flag is never taken for a value, and a stray number is no option
        assert run("distance", "--eq43", "--x", "--y", 1) == 2
        assert "--x: expected one argument" in capsys.readouterr().err
        assert run("distance", "--eq43", "--x", 1, "--y", 1, "-1e3") == 2
        assert "unrecognized arguments: -1e3" in capsys.readouterr().err

    def test_fit_recovers_reference_poly(self, tmp_path, capsys):
        from emdsteg.bound import REFERENCE_BOUND_POLY, cubic_eval

        points = tmp_path / "pts.csv"
        lines = ["x,y"]
        for i in range(20):
            x = i * 0.15
            lines.append(f"{x},{cubic_eval(REFERENCE_BOUND_POLY, x)!r}")
        points.write_text("\n".join(lines))
        assert run("fit", "--points", points) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["c0"] == pytest.approx(-1.098, abs=1e-9)
        assert record["c3"] == pytest.approx(2.994, abs=1e-9)
        assert record["residual"] < 1e-18

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_poly_rejects_non_finite(self, tmp_path, value, capsys):
        # Python's json reads these tokens as floats
        poly = tmp_path / "poly.json"
        poly.write_text(f'{{"c3": {value}, "c2": 0.0, "c1": 0.0, "c0": 0.0}}')
        cover = tmp_path / "c.pgm"
        stego = tmp_path / "s.pgm"
        cover.write_bytes(save_pgm(GrayImage(2, 1, [100, 100])))
        stego.write_bytes(save_pgm(GrayImage(2, 1, [101, 100])))
        for args in (
            ("distance", "--poly", poly, "--x", 1, "--y", 1),
            ("analyze", "--scheme", "emd", "--n", 2, "--cover", cover,
             "--stego", stego, "--bound-poly", poly),
        ):
            assert run(*args) == 3
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"c3": "x", "c2": 0.0, "c1": 0.0, "c0": 0.0}',
             "bad polynomial record: could not convert string to float: 'x'"),
            ("c3 = 1", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=["non-numeric-coefficient", "not-json"],
    )
    def test_poly_rejects_bad_record(self, tmp_path, capsys, text, message):
        poly = tmp_path / "poly.json"
        poly.write_text(text)
        assert run("distance", "--poly", poly, "--x", 1, "--y", 1) == 3
        assert capsys.readouterr() == ("", f"error: {poly}: {message}\n")

    @pytest.mark.parametrize("row", ["0.5,nan", "inf,1", "1,-inf"])
    def test_fit_rejects_non_finite_points(self, tmp_path, row, capsys):
        # a NaN row used to print NaN coefficients, an infinite one to hang in LAPACK
        points = tmp_path / "pts.csv"
        points.write_text("x,y\n0,0\n1,1\n2,8\n3,27\n" + row + "\n")
        assert run("fit", "--points", points) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_fit_rejects_bad_data_row(self, tmp_path, capsys):
        # only the first non-blank line may be a header: a typo in the data
        # must stop the fit, not leave it to the other five rows
        points = tmp_path / "pts.csv"
        points.write_text("x,y\n0,0\n1,1\n2,8\n3,27\n4,6x4\n5,125\n")
        assert run("fit", "--points", points) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {points}:6: row '4,6x4' needs two numeric fields\n"

    @pytest.mark.parametrize("row", ["4", "4;", "four,64"])
    def test_fit_rejects_short_or_text_row(self, tmp_path, row, capsys):
        points = tmp_path / "pts.csv"
        points.write_text("0,0\n1,1\n2,8\n3,27\n" + row + "\n")
        assert run("fit", "--points", points) == 3
        assert capsys.readouterr().err.startswith(f"error: {points}:5: ")

    def test_fit_skips_blank_lines_around_header(self, tmp_path, capsys):
        points = tmp_path / "pts.csv"
        points.write_text("\n  \nx,y\n\n0,0\n1,1\n\n2,8\n3,27\n4,64\n\n")
        assert run("fit", "--points", points) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["c3"] == pytest.approx(1.0, abs=1e-9)

    def test_fit_rank_deficient(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("1,1\n1,2\n2,1\n2,2\n")
        assert run("fit", "--points", points) == 2

    @pytest.mark.parametrize(
        "poly,args",
        [
            # the distance equation's quintic overflows
            ({"c3": 1e200, "c2": 1e200, "c1": 0, "c0": 0}, ("--x", 1, "--y", 1)),
            # the squared distance overflows
            ({"c3": 1, "c2": 0, "c1": 0, "c0": 0}, ("--x", 1e200, "--y", 1)),
            ({"c3": 1, "c2": 0, "c1": 0, "c0": 0},
             ("--x", 1e200, "--y", 1, "--mode", "vertical")),
        ],
        ids=["quintic", "euclidean", "vertical"],
    )
    def test_distance_rejects_overflow(self, tmp_path, poly, args, capsys):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(poly))
        assert run("distance", "--poly", path, *args) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "overflows" in out.err

    def test_fit_rejects_overflowing_points(self, tmp_path, monkeypatch, capsys):
        # x^3 overflows in the design matrix, on which LAPACK does not return
        def no_lstsq(*args, **kwargs):
            raise AssertionError("least squares ran on an overflowed design")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        points = tmp_path / "pts.csv"
        points.write_text("x,y\n1e200,1\n2e200,2\n3e200,3\n4e200,5\n")
        assert run("fit", "--points", points) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "rows",
        [
            # least squares returns infinite coefficients
            "0,1e308\n1,2\n2,3\n3,4\n",
            # the coefficients fit, the sum of squared residuals does not
            "0,1e200\n1,-1e200\n2,1e200\n3,-1e200\n4,1e200\n",
        ],
        ids=["coefficients", "residual"],
    )
    def test_fit_rejects_overflowing_fit(self, tmp_path, rows, capsys):
        points = tmp_path / "pts.csv"
        points.write_text(rows)
        assert run("fit", "--points", points) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "overflows" in out.err

    @pytest.mark.parametrize(
        "name,data,args",
        [
            ("pts.csv", b"x,y\n0,0\n\xff,1\n", ("fit", "--points")),
            ("poly.json", b'{"c3": 1, "c2": 0, "c1": 0, "c0": 0, "note": "\xff"}',
             ("distance", "--x", 1, "--y", 1, "--poly")),
        ],
        ids=["points-csv", "poly-json"],
    )
    def test_undecodable_text_is_data_error(self, tmp_path, name, data, args, capsys):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(*args, path) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {path}: ") and out.err.count("\n") == 1


# Random argv for every subcommand. Each draw is the subcommand, its required
# options and some of its other options (sometimes another subcommand's) with
# values from the strategies below, plus stray tokens. Sizes are bounded:
# synthetic covers at most 64x64, --random-bits and --bits at most 4096,
# --max-n at most 8 (or 700 and 100000, past the float edge, which is checked
# before any row is made) and --max-z at most 4, scheme parameters in -1..4 (the
# largest table search they reach, mbe n=4 k=4, counts under 12 MiB of the
# search guard's 128 MiB). bench always gets a cover option, so it never builds its default
# 256x256 cover; the one valid config holds a 16x16 cover. A value "@name"
# names a file under the test's temporary directory; inputs and outputs use
# separate names, so no draw rewrites another's input.
_INPUTS = ("cover.pgm", "bad.pgm", "poly.json", "bad.json", "points.csv",
           "huge_points.csv", "config.json", "message.bin", "absent", "dir")
_OUTPUTS = ("out.bin", "dir", "absent/out.bin")
_OUT_DIRS = ("outdir", "cover.pgm", "absent/outdir")
_SCHEME_FLAGS = tuple(f"--{flag}" for flag in ("n", "t", "k", "w", "m", "key", "n1", "wbase"))


def _tokens(strategy):
    return strategy.map(lambda value: [value])


_number_tokens = _tokens(
    st.floats().map(repr) | st.sampled_from(["-1e-3", "1E2", "-.5e1", "x"])
)
_ARG_VALUES = {
    # a scheme token, often followed by parameters it accepts
    "--scheme": _tokens(st.just("bogus"))
    | st.sampled_from(sorted(SCHEME_ARGS)).flatmap(
        lambda name: st.sampled_from([[name], [name, *SCHEME_ARGS[name]]])
    ),
    **{flag: _tokens(st.integers(-1, 4).map(str)) for flag in _SCHEME_FLAGS},
    **{
        flag: _tokens(st.sampled_from(_INPUTS).map("@".__add__))
        for flag in ("--cover", "--stego", "--message", "--config", "--points",
                     "--poly", "--bound-poly")
    },
    "--synthetic": _tokens(
        st.builds("{}x{}:{}".format, st.integers(0, 64), st.integers(0, 64),
                  st.integers(0, 300))
        | st.sampled_from(["", "4x4", "x:1"])
    ),
    "--random-bits": _tokens(st.integers(-8, 4096).map(str)),
    "--bits": _tokens(st.integers(-8, 4096).map(str)),
    "--seed": _tokens(st.integers().map(str)),
    "--out": _tokens(st.sampled_from(_OUTPUTS).map("@".__add__)),
    "--out-dir": _tokens(st.sampled_from(_OUT_DIRS).map("@".__add__)),
    "--mode": _tokens(st.sampled_from(["euclidean", "vertical", "bogus"])),
    "--domain": st.tuples(_number_tokens, _number_tokens).map(lambda pair: pair[0] + pair[1]),
    "--max-n": _tokens(st.integers(-1, 8).map(str) | st.sampled_from(["700", "100000"])),
    "--max-z": _tokens(st.integers(-1, 4).map(str)),
    "--metric": _tokens(st.sampled_from(["standard", "proposed", "bogus"])),
    "--normalization": _tokens(st.sampled_from(["literal", "mean", "mean-per-pixel", "x"])),
    "--x": _number_tokens,
    "--y": _number_tokens,
    "--frontier": st.just([]),
    "--eq43": st.just([]),
}
# subcommand: (options it always gets, options it may get)
_COMMANDS = {
    "embed": (("--scheme", "--out"),
              _SCHEME_FLAGS + ("--cover", "--synthetic", "--message", "--random-bits", "--seed")),
    "extract": (("--scheme", "--stego", "--bits", "--out"), _SCHEME_FLAGS),
    "analyze": (("--scheme", "--cover", "--stego"),
                _SCHEME_FLAGS + ("--bound-poly", "--mode", "--domain")),
    "bound": (("--max-n", "--max-z", "--out"), ("--metric", "--normalization", "--frontier")),
    "bench": (("--config", "--out-dir"), ()),
    "fit": (("--points",), ()),
    "distance": (("--x", "--y"), ("--poly", "--eq43", "--mode", "--domain")),
}
_STRAY = st.sampled_from(["-h", "--help", "--bogus", "x", "--", "-1e3", "nan"])


def _options(flags):
    return st.sampled_from(flags).flatmap(lambda flag: _ARG_VALUES[flag].map([flag].__add__))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    groups = [draw(_ARG_VALUES[flag].map([flag].__add__)) for flag in required]
    if optional:
        groups += draw(st.lists(_options(optional), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        foreign = [flag for flag in _ARG_VALUES if flag not in required + optional]
        groups.append(draw(_options(foreign)))
    groups = draw(st.permutations(groups))
    argv = [command] + [token for group in groups for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(_STRAY))
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "cover.pgm").write_bytes(save_pgm(GrayImage(16, 16, list(range(256)))))
    (root / "bad.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
    (root / "poly.json").write_text(json.dumps({"c3": 1, "c2": -2, "c1": 1, "c0": 0.5}))
    (root / "bad.json").write_bytes(b'{"c3": \xff')
    (root / "points.csv").write_text("x,y\n0,1\n1,2\n2,0\n3,5\n4,4\n")
    # least squares returns infinite coefficients
    (root / "huge_points.csv").write_text("x,y\n0,1e308\n1,2\n2,3\n3,4\n")
    config = {"schemes": [{"scheme": "emd", "params": {"n": 2}}],
              "cover": {"kind": "noise", "width": 16, "height": 16, "seed": 3}}
    (root / "config.json").write_text(json.dumps(config))
    (root / "message.bin").write_bytes(b"\x5a\xa5")
    (root / "dir").mkdir()
    return root


def _reject_constant(name):
    raise AssertionError(f"fit printed {name}")


class TestArgvFuzz:
    @given(_argvs())
    @example(["embed", "--scheme", "emd", "--n", "2", "--synthetic", "4x4:50",
              "--message", "@message.bin", "--seed", "9", "--out", "@out.bin"])
    @example(["fit", "--points", "@huge_points.csv"])
    @example(["bound", "--max-n", "100000", "--max-z", "4", "--frontier", "--out", "@out.bin"])
    @settings(max_examples=200, deadline=None)
    def test_exit_codes_without_traceback(self, argv_files, argv):
        argv = [str(argv_files / a[1:]) if a.startswith("@") else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if {"--message", "--seed"} <= set(argv) and not {"-h", "--help"} & set(argv):
            # a seed means nothing to a message file
            assert code != 0, argv
        if argv[0] == "fit" and code == 0 and not {"-h", "--help"} & set(argv):
            # strict JSON: no NaN or Infinity in the record
            json.loads(stdout.getvalue(), parse_constant=_reject_constant)


def _outcome(call, *args):
    """(result, SystemExit code, stdout, stderr) of call(*args); no result after an exit."""
    stdout, stderr = io.StringIO(), io.StringIO()
    result = code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = call(*args)
        except SystemExit as exc:
            code = exc.code
    return result, code, stdout.getvalue(), stderr.getvalue()


# no arguments, help and an unknown option for each subcommand, no subcommand
# or an unknown one, and every README command
_PARSER_CORPUS = (
    [[], ["-h"], ["bogus"]]
    + [[name, *tail] for name in cli._COMMANDS for tail in ([], ["-h"], ["--zzz"])]
    + _readme_commands()
)


class TestOneSubcommandParser:
    @given(_argvs())
    @example(["distance", "--x", "0.0", "--y", "nan"])
    @settings(max_examples=200, deadline=None)
    def test_reads_argv_as_the_full_parser(self, argv):
        command = argv[0] if argv[0] in cli._COMMANDS else None
        # the namespaces' reprs, so that NaN values compare equal
        one = _outcome(lambda: repr(vars(build_parser(command).parse_args(argv))))
        assert one == _outcome(lambda: repr(vars(build_parser().parse_args(argv))))

    @pytest.mark.parametrize("argv", _PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "-")
    def test_main_prints_what_the_full_parser_prints(self, argv, tmp_path, monkeypatch):
        # each run in its own empty directory, so neither reads what the other wrote
        one_parser = cli.build_parser
        outcomes = []
        for name, build in (("one", one_parser), ("full", lambda command=None: one_parser())):
            monkeypatch.setattr(cli, "build_parser", build)
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            outcomes.append(_outcome(main, argv))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "argv, added",
        [
            (["bound", "--max-n", "2", "--max-z", "1", "--out", "b.csv"], ["bound"]),
            (["-h"], list(cli._COMMANDS)),
        ],
    )
    def test_a_call_adds_only_its_subparser(self, argv, added, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting_add_parser(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
        assert main(argv) == 0
        assert names == added

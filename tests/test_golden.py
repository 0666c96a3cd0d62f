"""Golden digests: every default bench scheme, embedded and extracted by the CLI.

Each scheme fills a 64x64 noise cover to full operational capacity with
seeded random bits; the sha256 of the stego PGM and of the extracted,
packed message must never change. Any change to the bit source, the codec,
the kernels or the PGM writer that alters a single byte shows up here.
"""

import hashlib

import pytest

from emdsteg import bench
from emdsteg.cli import main
from emdsteg.image import save_pgm
from emdsteg.schemes import make_scheme, operational_capacity

COVER = bench.noise_image(64, 64, 11)

# scheme key -> (sha256 of stego PGM, sha256 of extracted message bytes)
GOLDEN = {
    "emd n=2": (
        "740aa79e6237cf4dec446139b2b8b0121ef21e62bda83c9516e59606a897e606",
        "2b1a46d905acfe99f0820248f7b0cd42a58bdc816c180f24eda452b072f3a766",
    ),
    "emd n=3": (
        "7dc87934f548ace78920295c02fa16cbe941ec289214026a13c96683fae7eeaf",
        "29a4d09d5413c7107c491dda13f97686c4d1343f1590de5f6dd0814a6efbbb2e",
    ),
    "iemd": (
        "d275f6c9881e697518a50a6cb1b0d3aa754246c7e55ff7cb7f3c8722553e5ce1",
        "ce2a0be5698af20e98f1218a2d3cb9d4dfaa1a7456fd4209093db5b4d7f7f4e5",
    ),
    "pva t=2": (
        "b026e4223e8c3896ebab505d9162940c7ae7d80c9e5d20b0d96a9a908f5de078",
        "acd9b8da1c1e8e498b231f6a655284ceb7f368ab08ad5412c22ee3858c888c79",
    ),
    "femd t=2": (
        "02a6ca9161c4c3f6986ef9bc0051a44ee8b815d83777deafdffdfd8207ef3e05",
        "0c6af3cfc0cbc179041531a8b2b6b47d592906a90e9807ede1d5fa210b62322c",
    ),
    "de k=1": (
        "9d4f348c77ed4badd03c96cbfa2d1a150d92783122ffdc21b6eb5698c8bfd7b1",
        "0d2ed55e162706576aca29628dd9588c613a5a7e558547cd2f334fad9e2de4f4",
    ),
    "de k=2": (
        "edc810d520751a106b3309723869332060efc4416d1c565e38fe05de331b999a",
        "87c1578fce39d982e45a14ae1b9539c6d185969cd0973a0d1f35dc5d8ffb8d79",
    ),
    "mpemd n=2": (
        "7ac720248b2441a1f9308cd13bba5ffff72e7d1e019a7a83053e9595639714eb",
        "7ec0dd1b9162a964f8adbb4e421f71951c043ccc1365a9c4cf78b96dd8736237",
    ),
    "emd2 n=2": (
        "08eee71172dbe95d23e4901cd62733d29feb73446623d4ef0f870ad8ab976a4f",
        "49c2bb035df63dfde55c3691ed9a042b78a117be749e56018f02d0c2115738f7",
    ),
    "twoemd n=2": (
        "4a9fb67be347ec6a8a7582c24c65395ea2b7d899fba70c61beda87438995bb5e",
        "080a3c369172ecb2e9ca2bde3111d80b60fedc0a2df61e025bcd3ff13973251c",
    ),
    "gemd n=2": (
        "9f3d2a2e076227b7f449fd2ea5b875b341f80f94d3c40464808b82533b603f7a",
        "c61386404710d4a186713b6350cc30a80a2ca543ec60cc8f742126a0c49f2c8c",
    ),
    "gemd n=3": (
        "1ac22addf1256438261f69d136b52e017047e3ead9c4bf34c25f679b65a1ae08",
        "d074d889bdb3464856faefb29df384e6f8798b5fca749b8198beaec19029f5ee",
    ),
    "egemd n=4": (
        "83a65d1157509d344bb55e44b31ba4e08de544cf69100d3b990b82aabf43286d",
        "03d222d7f0b95f09d2fa7600e2437a05f692445340f0483724b9a22ab770c005",
    ),
    "mbe n=2 k=1": (
        "6403ee8372433c2a324a925da251fd3bb1d292fefb4ef5479e925a6a90d846c9",
        "d04a44814bb2bce2e7a5b36ff9a42bc240366d35dbd9d582625b47a43ff76459",
    ),
    "mbe n=3 k=1": (
        "60e84d88b6d3cff321e0f30fe2e472c102fa0c3ce4226a69d27832816bd0a5c0",
        "41177afc2394ee64b2335f28925b8ed9626c11e921866c84a0ea65965440748b",
    ),
    "msd n=3": (
        "21de2f1e295c757386c6ae3b9603ecea14bcf3d0374ba4199347231232c56727",
        "a3e740e2328f81c19940ff1deff983bee6b05985ed46da43e008eef4ae6ae895",
    ),
    "hemd n=3 w=3": (
        "21b991eb78ca088c670bc2ad3563bd3b99171573982cbe4fcba8ff0b59c77532",
        "c4a1c5258682692cbf2d2cd0211fdb91ebff506c43a3bb56a50cd48dfec1984d",
    ),
    "aemd n=2 m=4": (
        "925a293dbc1a69bad92e303683af0ce2c1053dfb0a72a85f5b8eebe1dcf39e2d",
        "ba4b5ea0bb95e5e64ea6f32a35b86386ffd5fc2c1706eff05fd8b6321aab959c",
    ),
}


def scheme_key(name, params):
    return " ".join([name, *(f"{k}={v}" for k, v in params.items())])


def test_every_default_scheme_is_pinned():
    assert sorted(GOLDEN) == sorted(
        scheme_key(name, params) for name, params in bench.DEFAULT_SCHEMES
    )


@pytest.fixture(scope="module")
def cover_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "cover.pgm"
    path.write_bytes(save_pgm(COVER))
    return path


@pytest.mark.parametrize(
    "index,name,params",
    [(i, name, params) for i, (name, params) in enumerate(bench.DEFAULT_SCHEMES)],
    ids=[scheme_key(name, params) for name, params in bench.DEFAULT_SCHEMES],
)
def test_cli_round_trip_digests(tmp_path, cover_path, index, name, params):
    flags = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    nbits = operational_capacity(COVER, make_scheme(name, **params))
    stego, message = tmp_path / "stego.pgm", tmp_path / "message.bin"
    assert main([
        "embed", "--scheme", name, *flags, "--cover", str(cover_path),
        "--random-bits", str(nbits), "--seed", str(index + 1), "--out", str(stego),
    ]) == 0
    assert main([
        "extract", "--scheme", name, *flags, "--stego", str(stego),
        "--bits", str(nbits), "--out", str(message),
    ]) == 0
    stego_digest, message_digest = GOLDEN[scheme_key(name, params)]
    assert hashlib.sha256(stego.read_bytes()).hexdigest() == stego_digest
    assert hashlib.sha256(message.read_bytes()).hexdigest() == message_digest

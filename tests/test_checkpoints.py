"""The checkpoint container shared by ENC1 (encoder) and PXB1 (proxy bank):
bytes survive a round trip, and every malformed file is refused with a
ConfigError before any array is built, and by `dmlbench eval` with exit 2."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlbench.cli import main
from dmlbench.encoder import EncoderParams, block_shapes, init_encoder, load_encoder, save_encoder
from dmlbench.errors import ConfigError
from dmlbench.numeric import Rng
from dmlbench.proxies import ProxyBank, init_proxies, load_proxies, save_proxies

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e300, -1e300]
values = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
dims = st.integers(1, 9)


def draw_array(draw, shape) -> np.ndarray:
    n = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64).reshape(shape)


@st.composite
def encoders(draw):
    shapes = block_shapes(draw(dims), draw(dims), draw(dims), draw(dims))
    return EncoderParams(*(draw_array(draw, s) for s in shapes))


@st.composite
def banks(draw):
    classes, per_class, dim = draw(dims), draw(dims), draw(dims)
    return ProxyBank(draw_array(draw, (classes * per_class, dim)), classes, per_class)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip(save, load, obj):
    """Bytes of save(obj), the loaded object, and the bytes it saves."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        save(obj, first)
        loaded = load(first)
        save(loaded, second)
        return first.read_bytes(), loaded, second.read_bytes()


@settings(max_examples=60, deadline=None)
@given(params=encoders())
def test_encoder_round_trip_keeps_every_bit(params):
    blob, loaded, again = round_trip(save_encoder, load_encoder, params)
    assert blob == again
    for (name, a), (_, b) in zip(params.blocks(), loaded.blocks()):
        assert b.dtype == np.float64 and same_bits(a, b), name


@settings(max_examples=60, deadline=None)
@given(bank=banks())
def test_proxy_round_trip_keeps_every_bit(bank):
    blob, loaded, again = round_trip(save_proxies, load_proxies, bank)
    assert blob == again
    assert same_bits(bank.matrix, loaded.matrix)
    assert (loaded.classes, loaded.proxies_per_class) == (bank.classes, bank.proxies_per_class)


def valid_encoder() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.enc"
        save_encoder(init_encoder(2, 5, 3, 2, Rng(1)), path)
        return path.read_bytes()


def valid_bank() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.pxb"
        save_proxies(init_proxies(2, 1, 2, Rng(1)), path)
        return path.read_bytes()


def malformed(magic: bytes, valid: bytes, ndims: int, shapes) -> dict[str, bytes]:
    """One file per way a checkpoint can be wrong. The zero-dim file carries
    the payload its header gives, so only the zero is wrong."""
    header = 4 + 4 * ndims
    zero_dims = (1,) * (ndims - 1) + (0,)
    payload = 8 * sum(int(np.prod(s)) for s in shapes(*zero_dims))
    huge = struct.pack(f"<{ndims}I", 2**31, 2**20, *(1,) * (ndims - 2))
    return {
        "wrong magic": b"NOPE" + valid[4:],
        "short header": valid[: header - 1],
        "magic and a partial dim": magic + b"\x00" * (ndims - 1),
        "zero dim": magic + struct.pack(f"<{ndims}I", *zero_dims) + b"\x00" * payload,
        "2^31 x 2^20 rows in 20 bytes": (magic + huge + b"\x00" * 20)[:20],
        "int64 overflow": magic + struct.pack(f"<{ndims}I", 2**32 - 1, 2**32 - 1, *(1,) * (ndims - 2)),
        "one byte short": valid[:-1],
        "five bytes short": valid[:-5],
        "one value short": valid[:-8],
        "one byte extra": valid + b"\x00",
    }


ENCODER_CASES = malformed(b"ENC1", valid_encoder(), 4, block_shapes)
PROXY_CASES = malformed(b"PXB1", valid_bank(), 3, lambda c, k, d: [(c * k, d)])


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.tsv"
    assert main(["synth", "--classes", "2", "--size", "20", "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("case", ENCODER_CASES)
def test_malformed_encoder_is_refused(case, data_file, tmp_path, capsys):
    path = tmp_path / "bad.enc"
    path.write_bytes(ENCODER_CASES[case])
    with pytest.raises(ConfigError):
        load_encoder(path)
    capsys.readouterr()
    assert main(["eval", "--data", str(data_file), "--encoder", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("case", PROXY_CASES)
def test_malformed_proxy_bank_is_refused(case, data_file, tmp_path, capsys):
    path = tmp_path / "bad.pxb"
    path.write_bytes(PROXY_CASES[case])
    with pytest.raises(ConfigError):
        load_proxies(path)
    encoder = tmp_path / "good.enc"
    encoder.write_bytes(valid_encoder())
    capsys.readouterr()
    assert main(["eval", "--data", str(data_file), "--encoder", str(encoder),
                 "--proxies", str(path), "--blended"]) == 2
    assert capsys.readouterr().err.startswith("error:")

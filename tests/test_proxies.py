import numpy as np
import pytest

from dmlbench.errors import ConfigError
from dmlbench.numeric import Rng
from dmlbench.proxies import (
    ProxyBank,
    init_proxies,
    load_proxies,
    save_proxies,
)


class TestProxyBank:
    def test_init_shapes_and_unit_norm(self):
        bank = init_proxies(4, 3, 8, Rng(0))
        assert bank.matrix.shape == (12, 8)
        assert bank.classes == 4 and bank.proxies_per_class == 3
        assert bank.dim == 8
        assert np.allclose(np.linalg.norm(bank.matrix, axis=1), 1.0)

    def test_init_deterministic(self):
        a = init_proxies(3, 2, 5, Rng(7))
        b = init_proxies(3, 2, 5, Rng(7))
        assert np.array_equal(a.matrix, b.matrix)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProxyBank(np.zeros((3, 4)), 2, 2)  # row count mismatch
        with pytest.raises(ConfigError):
            ProxyBank(np.full((2, 2), np.nan), 2, 1)
        with pytest.raises(ConfigError):
            init_proxies(0, 1, 4, Rng(0))


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        bank = init_proxies(3, 2, 6, Rng(9))
        p1 = tmp_path / "a.pxb"
        p2 = tmp_path / "b.pxb"
        save_proxies(bank, p1)
        loaded = load_proxies(p1)
        assert np.array_equal(loaded.matrix, bank.matrix)
        assert (loaded.classes, loaded.proxies_per_class) == (3, 2)
        save_proxies(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pxb"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ConfigError):
            load_proxies(p)

    def test_truncated(self, tmp_path):
        bank = init_proxies(2, 1, 4, Rng(3))
        p = tmp_path / "t.pxb"
        save_proxies(bank, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            load_proxies(p)

    def test_layout_is_little_endian(self, tmp_path):
        bank = ProxyBank(np.array([[1.0, 2.0], [3.0, 4.0]]), 2, 1)
        p = tmp_path / "l.pxb"
        save_proxies(bank, p)
        blob = p.read_bytes()
        assert blob[:4] == b"PXB1"
        header = np.frombuffer(blob[4:16], dtype="<u4")
        assert header.tolist() == [2, 1, 2]
        payload = np.frombuffer(blob[16:], dtype="<f8")
        assert payload.tolist() == [1.0, 2.0, 3.0, 4.0]

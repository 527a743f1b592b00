"""Learnable proxy vectors: storage, seeded init, and checkpoint I/O.

A bank holds K proxies for each of C classes in a single (C*K, d) matrix;
row class*K + k is proxy k of that class. ProxyNCA and ProxyAnchor use K=1,
SoftTriple K >= 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numeric import Rng, l2_normalize_rows

_MAGIC = b"PXB1"


@dataclass
class ProxyBank:
    matrix: np.ndarray  # (C*K, d) float64
    classes: int
    proxies_per_class: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        expected = self.classes * self.proxies_per_class
        if self.classes < 1 or self.proxies_per_class < 1:
            raise ConfigError("class and proxy counts must be >= 1")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != expected:
            raise ConfigError(
                f"bank must have {expected} rows, got shape {self.matrix.shape}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ConfigError("proxy bank contains NaN or Inf")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def init_proxies(classes: int, proxies_per_class: int, dim: int, rng: Rng) -> ProxyBank:
    """Gaussian(0, 1/sqrt(d)) rows, L2-normalized. Deterministic given the rng seed."""
    if classes < 1 or proxies_per_class < 1 or dim < 1:
        raise ConfigError("classes, proxies_per_class and dim must all be >= 1")
    rows = classes * proxies_per_class
    matrix = rng.normal(rows * dim, scale=1.0 / np.sqrt(dim)).reshape(rows, dim)
    return ProxyBank(l2_normalize_rows(matrix), classes, proxies_per_class)


def save_proxies(bank: ProxyBank, path) -> None:
    """Little-endian binary: magic "PXB1", C/K/d as u32, then C*K*d float64 row-major."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", bank.classes, bank.proxies_per_class, bank.dim))
        fh.write(np.ascontiguousarray(bank.matrix, dtype="<f8").tobytes())


def load_proxies(path) -> ProxyBank:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ConfigError(f"{path}: not a proxy checkpoint (bad magic)")
    classes, per_class, dim = struct.unpack_from("<III", blob, 4)
    expected = 16 + 8 * classes * per_class * dim
    if len(blob) != expected:
        raise ConfigError(
            f"{path}: expected {expected} bytes for a {classes}x{per_class}x{dim} bank, got {len(blob)}"
        )
    matrix = np.frombuffer(blob, dtype="<f8", offset=16).reshape(
        classes * per_class, dim
    )
    return ProxyBank(matrix.astype(np.float64), classes, per_class)

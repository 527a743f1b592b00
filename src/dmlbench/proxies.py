"""Learnable proxy vectors: storage, seeded init, and checkpoint I/O.

A bank holds K proxies for each of C classes in a single (C*K, d) matrix;
row class*K + k is proxy k of that class. ProxyNCA and ProxyAnchor use K=1,
SoftTriple K >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numeric import Rng, l2_normalize_rows, read_arrays, write_arrays

_MAGIC = b"PXB1"


@dataclass
class ProxyBank:
    matrix: np.ndarray  # (C*K, d) float64, C-ordered: the losses sum its rows in that layout
    classes: int
    proxies_per_class: int

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        expected = self.classes * self.proxies_per_class
        if self.classes < 1 or self.proxies_per_class < 1:
            raise ConfigError("class and proxy counts must be >= 1")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != expected:
            raise ConfigError(
                f"bank must have {expected} rows, got shape {self.matrix.shape}"
            )
        if not np.isfinite(self.matrix).all():
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
    """Binary checkpoint: the `dmlbench.numeric` container with magic
    b"PXB1", dims (C, K, d), and the (C*K, d) matrix."""
    write_arrays(path, _MAGIC, (bank.classes, bank.proxies_per_class, bank.dim), [bank.matrix])


def load_proxies(path) -> ProxyBank:
    (classes, per_class, _), (matrix,) = read_arrays(
        path, _MAGIC, 3, lambda c, k, d: [(c * k, d)]
    )
    return ProxyBank(matrix, classes, per_class)

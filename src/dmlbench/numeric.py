"""Dense float64 kernels, stable reductions, a reproducible RNG, and the
finite-difference gradient oracle.

Everything here operates on plain numpy arrays (1-D "vectors", 2-D row-major
"matrices") in 64-bit floating point. All functions are pure except
`add_rows_at`, which updates its target in place; `Rng` instances are
single-owner streams.

RNG algorithm (frozen; changing it is a breaking change)
--------------------------------------------------------
`Rng` is a counter-based SplitMix64 generator. Draw ``n`` produces

    out_n = mix64((seed + n * 0x9E3779B97F4A7C15) mod 2**64)

where ``mix64`` is the SplitMix64 finalizer (xor-shift 30, multiply
0xBF58476D1CE4E5B9, xor-shift 27, multiply 0x94D049BB133111EB, xor-shift 31).
Uniform doubles take the top 53 bits over 2**53, so the uniform stream is
exact integer arithmetic and identical on every platform. Gaussian draws are
Box-Muller over consecutive uniform pairs; they inherit libm's log/cos
rounding, which is stable for a fixed numpy build.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateVectorError, DimensionError, OracleFailureError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DimensionError("vector contains NaN or Inf")
    return v


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionError("matrix contains NaN or Inf")
    return m


def softmax_rows(logits) -> np.ndarray:
    """Row-wise max-shifted softmax of a 2-D logit matrix."""
    m = as_matrix(logits)
    if m.shape[1] == 0:
        raise DimensionError("softmax of empty rows")
    shifted = np.exp(m - m.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def log_sum_exp(xs) -> float:
    """max(x) + log(sum(exp(x - max(x)))). Exact for singletons."""
    x = as_vector(xs)
    if x.size == 0:
        raise DimensionError("log_sum_exp of empty vector")
    m = float(np.max(x))
    if x.size == 1:
        return m
    return m + float(np.log(np.sum(np.exp(x - m))))


def softplus(t: float) -> float:
    """log(1 + exp(t)) without overflow at large |t|."""
    if t > 0.0:
        return t + float(np.log1p(np.exp(-t)))
    return float(np.log1p(np.exp(t)))


def sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + float(np.exp(-t)))
    e = float(np.exp(t))
    return e / (1.0 + e)


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Each row over its L2 norm. A zero norm raises, and so does a
    non-finite one: finite entries of about 1e154 or more overflow the sum
    of squares, and dividing by the inf norm would give a zero row."""
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateVectorError("cannot normalize zero-norm row")
    if not np.isfinite(norms).all():
        raise DegenerateVectorError("row norm is not finite")
    return m / norms


def normalize_backward(raw: np.ndarray, grad_unit: np.ndarray) -> np.ndarray:
    """Chain an upstream gradient w.r.t. u = raw/|raw| back to raw.

    d u / d raw = (I - u u^T) / |raw|, so the radial component of the
    upstream gradient is projected out.
    """
    r = float(np.linalg.norm(raw))
    u = raw / r
    return (grad_unit - (grad_unit @ u) * u) / r


def add_rows_at(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """target[rows[i]] += values[i] for i in order, so a row named several
    times adds its terms in the order given. One np.add.at over the flat
    element indices, which numpy runs much faster than the row-indexed
    form. `target` must be C-contiguous: it is updated through a flat view,
    and any other layout raises ValueError rather than update a copy."""
    if not target.flags.c_contiguous:
        raise ValueError("add_rows_at needs a C-contiguous target")
    width = target.shape[1]
    flat = (np.asarray(rows, dtype=np.int64)[:, None] * width + np.arange(width)).ravel()
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


def fd_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+h*e_i) - f(x-h*e_i)) / 2h.

    `f` maps a 1-D float64 vector to a scalar. Raises OracleFailureError
    naming the coordinate if any probe evaluates non-finite.
    """
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    x = as_vector(x).copy()
    grad = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        hi = float(f(x))
        x[i] = orig - h
        lo = float(f(x))
        x[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise OracleFailureError(
                f"non-finite function value while probing coordinate {i}"
            )
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _mix64_int(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def derive_seed(master: int, *parts) -> int:
    """Mix a master seed with string/integer tags into a child seed.

    Used to give every (fold, grid point, purpose) its own independent
    stream: derive_seed(master, "fold", 3), derive_seed(seed, "shuffle"), ...
    Pure integer arithmetic, platform-independent.
    """
    h = _mix64_int(int(master) & _MASK64)
    for part in parts:
        if isinstance(part, str):
            v = fnv1a_64(part.encode("utf-8"))
        else:
            v = int(part) & _MASK64
        h = _mix64_int((h ^ v) + _GOLDEN)
    return h


class Rng:
    """Counter-based SplitMix64 stream (layout in the module docstring).

    Same seed, same call sequence => identical draws. One instance per
    owner; never share across threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _mix64(np.uint64(self.seed) + idx * np.uint64(_GOLDEN))

    def random(self, n: int | None = None):
        """Uniform float64 in [0, 1): top 53 bits of the raw stream / 2**53."""
        if n is None:
            return float(self._raw(1)[0] >> np.uint64(11)) / 9007199254740992.0
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64)
        return u / 9007199254740992.0

    def normal(self, n: int, scale: float = 1.0) -> np.ndarray:
        """Standard Gaussians via Box-Muller over consecutive uniform pairs."""
        pairs = (n + 1) // 2
        u = self.random(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return scale * z[:n]

    def randint(self, bound: int) -> int:
        """Integer in [0, bound) via floor(u * bound); exact for bound < 2**53."""
        return int(self.random() * bound)

    def _offsets(self, bounds: np.ndarray) -> list[int]:
        """One randint(b) per bound, from a single block of uniforms:
        floor(u * b) is exact in float64 for b < 2**53, so the offsets and
        the counter match drawing them one call at a time."""
        return (self.random(bounds.size) * bounds).astype(np.int64).tolist()

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): for i = n-1 down to 1, swap
        i with randint(i + 1). Draws n - 1 uniforms (none for n < 2)."""
        if n < 2:
            return np.arange(n)
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self._offsets(np.arange(n, 1, -1))):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in draw order (partial
        Fisher-Yates: step i swaps i with i + randint(n - i)). Draws k
        uniforms; the swapped slots live in a dict, so the cost is O(k)
        whatever n is."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        moved: dict[int, int] = {}
        picked = []
        for i, j in enumerate(self._offsets(np.arange(n, n - k, -1))):
            j += i
            picked.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return np.array(picked, dtype=np.int64)

"""Dense float64 kernels, stable reductions, a reproducible RNG, the
finite-difference gradient oracles, named block views of one flat vector
(`block_views`), and the one checkpoint container (`write_arrays`,
`read_arrays`) that the encoder and proxy bank share.

Everything here operates on plain numpy arrays (1-D "vectors", 2-D row-major
"matrices") in 64-bit floating point. All functions are pure except
`add_rows_at`, which updates its target in place, and the checkpoint pair,
which write and read files; `Rng` instances are single-owner streams.

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

Draws at any stream position. A draw depends on its position alone, so any
entry of a `normal` draw can be made by itself: `Rng.peek_normal` gives
chosen entries of the next `normal(n)` without moving the counter, and
`Rng.defer_normal` hands a whole `normal(n)` to a second stream while this
one moves past it. Both draw their uniforms by stream position and share
one Box-Muller core, so an entry has the same bits either way, on the
condition that numpy's elementwise log1p, sqrt, cos and sin give an element
the same bits whatever the array's length and the element's place in it
(the SIMD body or its remainder). That holds for numpy 2.4.6 with its
X86_V4 loops and with them disabled down to AVX2
(`tests/test_hotpath_equivalence.py`, `tests/test_cpu_dispatch.py`).
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .errors import ConfigError, DegenerateVectorError, DimensionError, OracleFailureError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# `_mix64`'s and `Rng._uniforms_at`'s constants as numpy scalars, made once
# rather than on every draw
_GOLDEN64 = np.uint64(_GOLDEN)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U11, _U27, _U30, _U31 = (np.uint64(shift) for shift in (11, 27, 30, 31))
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
CHOICE_SCAN = 32  # Rng.choice looks for its colliding steps from this many draws on


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DimensionError("vector contains NaN or Inf")
    return v


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DimensionError("matrix contains NaN or Inf")
    return m


def softmax_rows(logits) -> np.ndarray:
    """Row-wise max-shifted softmax of a 2-D logit matrix."""
    m = as_matrix(logits)
    if m.shape[1] == 0:
        raise DimensionError("softmax of empty rows")
    shifted = np.exp(m - m.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def log_sum_exp_rows(m) -> np.ndarray:
    """max(x) + log(sum(exp(x - max(x)))) of each row x of a 2-D array. A
    row comes out to the same bits alone or stacked, and to the bits of
    the same expression on the row as a 1-D array, so a loss that stacks
    its rows keeps the bits of one row at a time.

    A row of one entry returns that entry itself, not x + log(1) (which
    turns -0.0 into +0.0). The rows are taken C-ordered, so each row's sum
    is numpy's pairwise sum over one contiguous run, as it is for a 1-D
    array: over any other layout the reduction would add in another order.
    The row max is exact in any order, and exp and log act entry by entry.
    Pad no row to a common width: from 8 entries on, the pairwise sum
    groups by position, so trailing zeros change which terms meet. A NaN or
    Inf anywhere raises DimensionError, as `as_vector` does. The equality
    with the expression on a 1-D array was seen with numpy 2.4.6 and its
    X86_V4 loops (`tests/test_hotpath_equivalence.py`).
    """
    x = np.ascontiguousarray(m, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {x.shape}")
    if x.shape[1] == 0:
        raise DimensionError("log_sum_exp of empty vector")
    if not np.isfinite(x).all():
        raise DimensionError("vector contains NaN or Inf")
    top = x.max(axis=1)
    if x.shape[1] == 1:
        return top
    return top + np.log(np.exp(x - top[:, None]).sum(axis=1))


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
    of squares, and dividing by the inf norm would give a zero row.

    The rows are read C-ordered, so each row's sum of squares is numpy's
    sum over one contiguous run and a Fortran-ordered or transposed matrix
    gives the bits of its C-ordered copy; the result is C-ordered. The
    norms are the expression `np.linalg.norm(m, axis=1)` evaluates for a
    real matrix in numpy 2.4.6, without its dispatch."""
    m = np.ascontiguousarray(m)
    norms = np.sqrt(np.add.reduce(m * m, axis=1, keepdims=True))
    if (norms == 0.0).any():
        raise DegenerateVectorError("cannot normalize zero-norm row")
    if not np.isfinite(norms).all():
        raise DegenerateVectorError("row norm is not finite")
    return m / norms


def normalize_backward(raw: np.ndarray, grad_unit: np.ndarray) -> np.ndarray:
    """Chain upstream gradients w.r.t. the rows u = raw/|raw| back to the
    rows of raw, both (n, d).

    d u / d raw = (I - u u^T) / |raw| per row, so the radial component of
    each upstream row is projected out. Each row's norm and its dot with
    the upstream row are stacked (1, d) @ (d, 1) products, the same BLAS
    dots as np.linalg.norm and @ on the row alone, so every row comes out
    as it would one at a time, to the bit. The inputs are taken C-ordered:
    a strided row would take another BLAS path and round differently, so
    this way the result does not depend on the memory layout.
    """
    raw, grad_unit = np.ascontiguousarray(raw), np.ascontiguousarray(grad_unit)
    r = np.sqrt((raw[:, None, :] @ raw[:, :, None])[:, :, 0])
    u = raw / r
    radial = (grad_unit[:, None, :] @ u[:, :, None])[:, :, 0]
    return (grad_unit - radial * u) / r


def add_rows_at(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """target[rows[i]] += values[i] for i in order, so a row named several
    times adds its terms in the order given. One np.add.at over the flat
    element indices, which numpy runs much faster than the row-indexed
    form. The indices are the rows `rows` of the target shape's index
    table (`_flat_index`), taken in order: row r's r * width .. r * width +
    width - 1, one row after another, so every term meets its entry in the
    order given; the table is made once per shape, so a call only takes
    from it. `target` must be C-contiguous: it is updated through a flat
    view, and any other layout raises ValueError rather than update a
    copy."""
    if not target.flags.c_contiguous:
        raise ValueError("add_rows_at needs a C-contiguous target")
    flat = _flat_index(*target.shape).take(rows, axis=0)
    np.add.at(target.reshape(-1), flat.reshape(-1), values.reshape(-1))


@functools.lru_cache(maxsize=8)
def _flat_index(height: int, width: int) -> np.ndarray:
    """The flat index of each entry of a C-ordered (height, width) array,
    read-only: row r holds r * width .. r * width + width - 1. The memo is
    bounded, a training run's table and loss batch shapes fit in it, and
    an index depends on the shape alone, so it holds no state of any run."""
    index = np.arange(height * width).reshape(height, width)
    index.flags.writeable = False
    return index


def block_views(flat: np.ndarray, blocks) -> dict[str, np.ndarray]:
    """A C-ordered view of the 1-D `flat` for each (name, shape) of
    `blocks`, by name in that order, each over the run after the one
    before: one vector holds every block."""
    views, start = {}, 0
    for name, shape in blocks:
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    if start != flat.size:
        raise DimensionError(f"blocks of {start} entries do not fill a vector of {flat.size}")
    return views


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
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise OracleFailureError(
                f"non-finite function value while probing coordinate {i}"
            )
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def five_point(f, x, h: float, coords) -> np.ndarray:
    """Fourth-order central difference at the coordinates `coords` of x,
    in that order:
    (-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / 12h. Its truncation error
    is O(h^4), so a step far larger than `fd_gradient`'s is accurate, and
    the rounding error, about eps * |f| / h, is far smaller. Raises
    OracleFailureError as `fd_gradient` does."""
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    x = as_vector(x).copy()
    grad = np.zeros(len(coords))
    for k, i in enumerate(coords):
        orig = x[i]
        vals = []
        for step in (2 * h, h, -h, -2 * h):
            x[i] = orig + step
            vals.append(float(f(x)))
        x[i] = orig
        if not all(map(math.isfinite, vals)):
            raise OracleFailureError(f"non-finite function value while probing coordinate {i}")
        grad[k] = (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12 * h)
    return grad


def write_arrays(path, magic: bytes, dims, arrays) -> None:
    """Checkpoint container (frozen): the 4-byte ASCII `magic`, the `dims` as
    little-endian u32, then each array as little-endian f8 in C order."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<{len(dims)}I", *dims))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_arrays(path, magic: bytes, ndims: int, shapes) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The `ndims` dims and the float64 arrays of a `write_arrays` file,
    where `shapes(*dims)` lists the arrays' shapes.

    The file is read once. Before any array is built, a wrong magic, a
    header shorter than its dims, a dim of 0, or a file size other than the
    one the dims give (counted in Python ints, so no product overflows)
    raises ConfigError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    name = magic.decode("ascii")
    if blob[:4] != magic:
        raise ConfigError(f"{path}: not a {name} checkpoint (magic {blob[:4]!r})")
    start = 4 + 4 * ndims
    if len(blob) < start:
        raise ConfigError(f"{path}: {name} header is truncated")
    dims = struct.unpack_from(f"<{ndims}I", blob, 4)
    if 0 in dims:
        raise ConfigError(f"{path}: {name} header has a zero dim {dims}")
    layout = shapes(*dims)
    sizes = [math.prod(shape) for shape in layout]
    expected = start + 8 * sum(sizes)
    if len(blob) != expected:
        raise ConfigError(
            f"{path}: expected {expected} bytes for a {name} with dims {dims}, got {len(blob)}"
        )
    arrays = []
    for shape, size in zip(layout, sizes):
        flat = np.frombuffer(blob, dtype="<f8", count=size, offset=start)
        arrays.append(flat.astype(np.float64).reshape(shape))
        start += 8 * size
    return dims, arrays


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
    x = (x ^ (x >> _U30)) * _MIX_A
    x = (x ^ (x >> _U27)) * _MIX_B
    return x ^ (x >> _U31)


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

    def _uniforms_at(self, positions: np.ndarray) -> np.ndarray:
        """The uniforms of the draws at `positions` (uint64 counter values):
        the top 53 bits of each raw draw / 2**53."""
        raw = _mix64(np.uint64(self.seed) + positions * _GOLDEN64)
        u = (raw >> _U11).astype(np.float64)
        return u / 9007199254740992.0

    def random(self, n: int | None = None):
        """The next n uniforms in [0, 1) (`_uniforms_at`), as an array; with
        no n, the one uniform of ``random(1)`` as a float."""
        if n is None:
            return float(self.random(1)[0])
        positions = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return self._uniforms_at(positions)

    @staticmethod
    def _box_muller(u: np.ndarray) -> np.ndarray:
        """Gaussians from uniforms taken in pairs (u1, u2) back to back: pair
        k gives entry 2k, r cos(theta), and entry 2k + 1, r sin(theta)."""
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(u.size)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z

    def normal(self, n: int, scale: float = 1.0) -> np.ndarray:
        """Standard Gaussians via Box-Muller over consecutive uniform pairs;
        draws 2 * ceil(n / 2) uniforms."""
        pairs = (n + 1) // 2
        return scale * self._box_muller(self.random(2 * pairs))[:n]

    def peek_normal(self, index: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Entries `index` (any order, repeats allowed) of what
        `normal(n, scale)` would return next, for any n above them, with the
        same bits: each entry's pair of uniforms is drawn at its stream
        position and goes through the same Box-Muller core. The counter
        does not move."""
        index = np.asarray(index, dtype=np.uint64)
        first = np.uint64(self.counter + 1) + (index >> np.uint64(1)) * np.uint64(2)
        pairs = np.stack([first, first + np.uint64(1)], axis=1).ravel()
        z = self._box_muller(self._uniforms_at(pairs))
        return scale * z[2 * np.arange(index.size) + (index & np.uint64(1)).astype(np.int64)]

    def defer_normal(self, n: int) -> "Rng":
        """Move past the draws of `normal(n)` and return a stream that makes
        them: its `normal(n)` and `peek_normal` give this stream's next n
        Gaussians, while this stream goes on as if it had drawn them."""
        ahead = Rng(self.seed)
        ahead.counter = self.counter
        self.counter += 2 * ((n + 1) // 2)
        return ahead

    def randint(self, bound: int) -> int:
        """Integer in [0, bound) via floor(u * bound); exact for bound < 2**53."""
        return int(self.random() * bound)

    def _offsets(self, bounds: np.ndarray) -> np.ndarray:
        """One randint(b) per bound, from a single block of uniforms:
        floor(u * b) is exact in float64 for b < 2**53, so the offsets and
        the counter match drawing them one call at a time."""
        return (self.random(bounds.size) * bounds).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): for i = n-1 down to 1, swap
        i with randint(i + 1). Draws n - 1 uniforms (none for n < 2)."""
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self._offsets(np.arange(n, 1, -1)).tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in draw order (partial
        Fisher-Yates: step i swaps slot i with slot j_i = i + randint(n - i)
        and picks what slot j_i held). Draws k uniforms.

        A step picks j_i itself unless an earlier step moved something into
        slot j_i, and what it moves into j_i is i unless an earlier step
        moved something into slot i. So from CHOICE_SCAN draws on, only the
        steps that share their j with another step, whose j < k is a later
        step's i, or whose i is an earlier step's j, run the swap loop, over
        a dict of moved slots, in order; the others pick their j. Below it,
        finding those steps costs more than looping over all of them. The
        cost is O(k) whatever n is."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        steps = np.arange(k)
        picked = steps + self._offsets(np.arange(n, n - k, -1))
        if k < CHOICE_SCAN:
            loop = range(k)
        else:
            order = np.argsort(picked)
            shared = picked[order[1:]] == picked[order[:-1]]  # neighbours in j order share it
            ahead = (picked < k) & (picked > steps)  # j is a later step's i
            looped = ahead.copy()
            looped[picked[ahead]] = True  # that later step
            looped[order[1:][shared]] = True
            looped[order[:-1][shared]] = True
            loop = np.flatnonzero(looped).tolist()
        slots = picked.tolist()
        moved: dict[int, int] = {}
        for i in loop:
            j = slots[i]
            picked[i] = moved.get(j, j)
            moved[j] = moved.get(i, i)
        return picked

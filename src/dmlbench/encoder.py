"""Hashed bag-of-tokens text encoder with an attached linear classifier head.

The encoder is deliberately tiny so experiments run in seconds on a CPU:
tokens are hashed into a fixed vocabulary, their embedding rows are
averaged, and one tanh projection produces the final embedding. The model
still exposes the two outputs the training objectives need, an embedding
z per text and classifier logits over classes, and the whole thing is
differentiable by hand (`backward_batch`).

Tokenization is frozen: lowercase, split on whitespace, strip surrounding
ASCII punctuation, drop empties, hash with FNV-1a 64 modulo the vocabulary
size. Texts with no surviving token map to the single token id 0 so every
text has an embedding. Each distinct token is hashed once while it stays
in a bounded memo (`_token_hash`).

`pack_tokens` packs the token lists of a set of texts once. A grid
(`dmlbench.harness.run_grid`) tokenizes and packs its dataset once, and
each cell takes its training and test texts from that pack by index
(`TokenBatch.take`); `dmlbench.trainer.train` packs a list of texts
itself. Each training epoch takes its shuffled order from the pack once,
and each step's batch is a run of views of that epoch (`TokenBatch.view`).
`forward_batch` embeds a packed batch.
"""

from __future__ import annotations

import functools
import math
import string
from array import array
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .numeric import Rng, add_rows_at, fnv1a_64, read_arrays, write_arrays

MAGIC = b"ENC1"
DEFAULT_VOCAB = 4096
DEFAULT_EMBED_DIM = 32
DEFAULT_OUT_DIM = 16
INIT_SCALE = 0.1  # standard deviation of every initial parameter
_POOL_TEXTS = 64  # texts per gather in forward_batch: a training batch's in one
BLOCK_NAMES = ("embedding_table", "projection", "projection_bias", "classifier", "classifier_bias")

_PUNCT = string.punctuation


def block_shapes(vocab: int, embed: int, out: int, classes: int) -> list[tuple[int, ...]]:
    """The shapes of the five parameter blocks, in checkpoint order."""
    return [(vocab, embed), (embed, out), (out,), (out, classes), (classes,)]


class EncoderParams:
    """All trainable arrays. Block order is the checkpoint layout order.
    The blocks may be views of one vector, as those `train` steps are.

    Table rows settled on read. A table row can owe work that is done only
    when the row is first read, in this order:

    * its init draw. `init_encoder` leaves the table undrawn: row i holds
      entries i*E .. i*E + E-1 of the table's `normal(V*E, INIT_SCALE)`
      draw, which `Rng.peek_normal` makes for that row alone with the
      same bits;
    * its decay. A trained model's table can hold rows that no training
      text used: their gradient was zero at every step, so each step's
      AdamW update of such a row was the decoupled decay alone,
      ``tmp = p * wd; tmp += 0.0; tmp *= lr; p -= tmp`` (see
      `dmlbench.trainer.AdamW`). `defer_decay` records those steps'
      learning rates and weight decay instead of applying them; a stale
      row replays the same operations in step order when it is first
      read, so it ends with the bits it would have had if every step had
      touched it.

    `table_for(ids)`, and so `forward_batch`, settles only the rows it is
    asked for; `embedding_table`, `blocks()` and so `save_encoder` settle
    the whole table, drawing the undrawn rows as one contiguous `normal`
    range. No public path returns an unsettled row.
    """

    def __init__(
        self,
        embedding_table: np.ndarray,  # (V, d_emb)
        projection: np.ndarray,  # (d_emb, d)
        projection_bias: np.ndarray,  # (d,)
        classifier: np.ndarray,  # (d, C)
        classifier_bias: np.ndarray,  # (C,)
    ):
        blocks = (embedding_table, projection, projection_bias, classifier, classifier_bias)
        dims = (
            len(embedding_table), embedding_table.shape[-1], projection.shape[-1], classifier.shape[-1]
        )
        shapes = [b.shape for b in blocks]
        if shapes != block_shapes(*dims):
            raise DimensionError(f"block shapes {shapes} are not those of one encoder")
        self.embedding_table = embedding_table
        self.projection = projection
        self.projection_bias = projection_bias
        self.classifier = classifier
        self.classifier_bias = classifier_bias

    @property
    def embedding_table(self) -> np.ndarray:
        self._settle()
        return self._table

    @embedding_table.setter
    def embedding_table(self, table: np.ndarray) -> None:
        self._table = table
        self._init = None  # the stream whose next normal(V*E) is the table's init
        self._undrawn = None  # (V,) bool: the rows that owe their init draw
        self._stale = None  # (V,) bool: the rows that owe the steps in _decay

    def _defer_init(self, stream: Rng) -> None:
        """Leave every table row undrawn: row i owes its entries of
        `stream.normal(V*E, INIT_SCALE)`."""
        self._init = stream
        self._undrawn = np.ones(self.vocab_size, dtype=bool)

    @property
    def vocab_size(self) -> int:
        return self._table.shape[0]

    @property
    def embed_dim(self) -> int:
        return self._table.shape[1]

    @property
    def out_dim(self) -> int:
        return self.projection.shape[1]

    @property
    def num_classes(self) -> int:
        return self.classifier.shape[1]

    def blocks(self) -> list[tuple[str, np.ndarray]]:
        """Named views of every parameter array, in checkpoint order."""
        return [(name, getattr(self, name)) for name in BLOCK_NAMES]

    def defer_decay(self, fresh_rows: np.ndarray, lrs: list[float], weight_decay: float) -> None:
        """Every row outside `fresh_rows` owes one decay step per entry of
        `lrs`, in order, to be applied when the row is first read. Rows
        that owe an earlier deferral settle it first; no row is drawn for
        this alone."""
        if self._stale is not None:
            self._settle(np.flatnonzero(self._stale))
        stale = np.ones(self.vocab_size, dtype=bool)
        stale[fresh_rows] = False
        self._stale = stale if stale.any() else None
        self._decay = (tuple(lrs), weight_decay)  # (each step's lr, weight decay)

    def _settle(self, ids: np.ndarray | None = None) -> None:
        """Draw the undrawn rows among `ids`, then apply the owed decay steps
        to the stale rows among them; every row when `ids` is None."""
        if self._undrawn is None and self._stale is None:
            return
        if ids is None:
            if self._undrawn is not None:
                # the whole draw becomes the table, with the drawn rows
                # copied in: one table's worth of memory at a time
                shape, drawn = self._table.shape, np.flatnonzero(~self._undrawn)
                kept, self._table = self._table[drawn], None
                self._table = self._init.normal(math.prod(shape), scale=INIT_SCALE).reshape(shape)
                self._table[drawn] = kept
            stale = None if self._stale is None else np.flatnonzero(self._stale)
            self._init = self._undrawn = self._stale = None
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if self._undrawn is not None:
                rows = np.unique(ids[self._undrawn[ids]])
                if rows.size:
                    width = self.embed_dim
                    index = (rows[:, None] * width + np.arange(width)).ravel()
                    drawn = self._init.peek_normal(index, scale=INIT_SCALE)
                    self._table[rows] = drawn.reshape(-1, width)
                    self._undrawn[rows] = False
            stale = None if self._stale is None else np.unique(ids[self._stale[ids]])
        if stale is not None and stale.size:
            lrs, weight_decay = self._decay
            block = self._table[stale]
            tmp = np.empty_like(block)
            for lr in lrs:
                np.multiply(block, weight_decay, out=tmp)
                # as adding AdamW's +0.0 update does: a -0.0 decay becomes
                # +0.0, and a -0.0 entry keeps its sign
                tmp += 0.0
                tmp *= lr
                block -= tmp
            self._table[stale] = block
            if ids is not None:
                self._stale[stale] = False

    def table_for(self, ids: np.ndarray) -> np.ndarray:
        """The table with the rows `ids` settled: read only those rows of it."""
        self._settle(ids)
        return self._table


def init_encoder(
    num_classes: int, vocab_size: int, embed_dim: int, out_dim: int, rng: Rng
) -> EncoderParams:
    """Gaussian(0, INIT_SCALE) init for every block, drawn from one stream
    in checkpoint order so a given seed always yields the same model.

    The table's rows are left undrawn (see EncoderParams): the stream moves
    past the table's 2 * ceil(V*E / 2) uniforms as if it had drawn them, so
    every later block gets the bits it always had, and a row is drawn when
    first read."""
    if num_classes < 1 or vocab_size < 1 or embed_dim < 1 or out_dim < 1:
        raise ConfigError("encoder dimensions must be positive")
    table_shape, *shapes = block_shapes(vocab_size, embed_dim, out_dim, num_classes)
    table_stream = rng.defer_normal(vocab_size * embed_dim)
    params = EncoderParams(
        np.empty(table_shape),
        *(rng.normal(int(np.prod(s)), scale=INIT_SCALE).reshape(s) for s in shapes),
    )
    params._defer_init(table_stream)
    return params


@functools.lru_cache(maxsize=1 << 14)
def _token_hash(token: str) -> int:
    """FNV-1a 64 of the token's UTF-8 bytes. The memo is bounded, and a
    hash depends on the token alone, so it holds no state of any run."""
    return fnv1a_64(token.encode("utf-8"))


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB) -> list[int]:
    if vocab_size < 1:
        raise ConfigError("vocab_size must be positive")
    ids = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCT)
        if token:
            ids.append(_token_hash(token) % vocab_size)
    return ids if ids else [0]


def classify_logits(params: EncoderParams, z: np.ndarray) -> np.ndarray:
    return z @ params.classifier + params.classifier_bias


def _spans(starts: np.ndarray, sizes: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Indices, into a flat array of runs that start at `starts` and hold
    `sizes` entries, of the runs `chosen`, one after another in the order
    chosen."""
    taken = sizes[chosen]
    ends = np.cumsum(taken)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts[chosen] - (ends - taken), taken) + np.arange(total)


class TokenBatch:
    """The token ids of a batch of texts, packed (`pack_tokens`): flat ids,
    per-text lengths, and each text's (row, count) pairs, its distinct ids
    in increasing order with how often each occurs in it. The pairs are
    counted once per pack; `take` gathers a batch of texts, pairs
    included, with index arrays, and `view` slices a run of consecutive
    texts without a copy. A plain class with slots: one is built at every
    training step, and the class adds next to nothing to the package's
    import time."""

    __slots__ = ("ids", "lengths", "rows", "counts", "widths", "_offsets")

    def __init__(self, ids, lengths, rows, counts, widths):
        self.ids = ids  # (T,) every text's token ids, one text after another
        self.lengths = lengths  # (L,) tokens per text, each at least 1
        self.rows = rows  # (P,) each text's distinct ids, increasing, one text after another
        self.counts = counts  # (P,) occurrences of each of those ids in its text
        self.widths = widths  # (L,) distinct ids per text
        self._offsets = None  # where each text's ids and pairs start, and where the last ends

    def __len__(self) -> int:
        return self.lengths.size

    def _text_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """(L + 1,) offsets of each text's ids and of its pairs, counted once."""
        if self._offsets is None:
            self._offsets = tuple(
                np.concatenate(([0], np.cumsum(n))) for n in (self.lengths, self.widths)
            )
        return self._offsets

    def take(self, chosen) -> TokenBatch:
        """The texts `chosen` (indices into this batch), in that order."""
        chosen = np.asarray(chosen, dtype=np.int64)
        id_offsets, pair_offsets = self._text_offsets()
        pairs = _spans(pair_offsets[:-1], self.widths, chosen)
        return TokenBatch(
            self.ids[_spans(id_offsets[:-1], self.lengths, chosen)], self.lengths[chosen],
            self.rows[pairs], self.counts[pairs], self.widths[chosen],
        )

    def view(self, first: int, stop: int) -> TokenBatch:
        """The texts first .. stop - 1 (0 <= first <= stop <= len), as views
        of this batch's arrays, with no gather: the values that
        `take(np.arange(first, stop))` holds."""
        ids, pairs = (slice(at[first], at[stop]) for at in self._text_offsets())
        return TokenBatch(
            self.ids[ids], self.lengths[first:stop],
            self.rows[pairs], self.counts[pairs], self.widths[first:stop],
        )


def pack_tokens(token_lists: Iterable[list[int]]) -> TokenBatch:
    """Pack token-id lists (as `tokenize` returns them) into a TokenBatch:
    one np.unique over the (text, id) pairs of every text counts the
    pairs in (text, id) order. The lists are read once, in order, so they
    may come from a generator: a grid that packs its dataset this way
    never holds every text's list at once."""
    lengths, flat = array("q"), array("q")
    for tokens in token_lists:
        lengths.append(len(tokens))
        flat.extend(tokens)
    if not lengths:
        raise DimensionError("need at least one text")
    lengths, ids = np.array(lengths, dtype=np.int64), np.array(flat, dtype=np.int64)
    if not lengths.all():
        raise DimensionError("every text needs at least one token (tokenize maps '' to [0])")
    if ids.min() < 0:
        raise DimensionError("token ids must be non-negative")
    span = int(ids.max()) + 1
    text_of = np.repeat(np.arange(lengths.size), lengths)
    pairs, counts = np.unique(text_of * span + ids, return_counts=True)
    texts, rows = np.divmod(pairs, span)
    return TokenBatch(ids, lengths, rows, counts, np.bincount(texts, minlength=lengths.size))


@dataclass
class ForwardCache:
    """Intermediates saved by forward_batch for the manual backward pass."""

    batch: TokenBatch
    pooled: np.ndarray  # (L, d_emb) mean embedding per text
    embeddings: np.ndarray  # (L, d) tanh outputs


def forward_batch(params: EncoderParams, batch: TokenBatch) -> tuple[np.ndarray, ForwardCache]:
    """Embeddings z = tanh(mean(embedding rows) @ projection + bias) of a
    packed batch of texts (`pack_tokens`, `TokenBatch.take`), shape (L, d),
    with the cache for backward_batch.

    The texts are pooled by length, up to _POOL_TEXTS at a time: one gather
    of their rows, position-major (l, n + 1, E) with a spare text, and
    np.add.reduce over axis 0 from +0.0 sum each text in token order, in
    memory near a training batch's. The spare text keeps the summed axis
    from being the contiguous one (E = 1, one text), which numpy sums
    pairwise. Only the gathered rows are settled (see EncoderParams).
    """
    if not len(batch):
        raise DimensionError("need at least one text")
    ids, lengths = batch.ids, batch.lengths
    starts = np.cumsum(lengths) - lengths
    table = params.table_for(ids)
    sums = np.empty((len(batch), params.embed_dim))
    for length in np.unique(lengths):
        same = np.flatnonzero(lengths == length)
        for first in range(0, same.size, _POOL_TEXTS):
            texts = same[first : first + _POOL_TEXTS]
            at = np.append(starts[texts], starts[texts[0]]) + np.arange(length)[:, None]
            sums[texts] = np.add.reduce(table[ids[at]], axis=0, initial=0.0)[:-1]
    pooled = sums / lengths[:, None]
    z = np.tanh(pooled @ params.projection + params.projection_bias)
    return z, ForwardCache(batch, pooled, z)


def backward_batch(
    params: EncoderParams, cache: ForwardCache, grad_embeddings: np.ndarray, grads: dict
) -> None:
    """Write the gradients of the table and projection blocks, given the
    upstream gradient on the batch embeddings, into `grads` (C-ordered
    float64 arrays keyed like EncoderParams.blocks(); in training, views of
    one vector). The classifier blocks are the caller's, who chains its own
    head gradient. Nothing of the table is read or settled.

    Each text's pooled gradient is distributed over its embedding rows in
    proportion to how often the row's token occurs in the text. The
    (text, row) pairs come from the batch, counted when it was packed, in
    (text, row) order; one add_rows_at scatters them in that order, so
    every table row sums its texts' terms in text order. Every product
    keeps its operand layouts: a GEMM can round otherwise.
    """
    z, batch = cache.embeddings, cache.batch
    grad_u = np.asarray(grad_embeddings, dtype=np.float64) * (1.0 - z * z)  # through tanh
    np.matmul(cache.pooled.T, grad_u, out=grads["projection"])
    np.add.reduce(grad_u, axis=0, out=grads["projection_bias"])
    grad_pooled = grad_u @ params.projection.T  # (L, d_emb)
    texts = np.repeat(np.arange(len(batch)), batch.widths)
    shares = batch.counts / batch.lengths[texts]
    grads["embedding_table"].fill(0.0)
    add_rows_at(grads["embedding_table"], batch.rows, shares[:, None] * grad_pooled[texts])


def save_encoder(params: EncoderParams, path) -> None:
    """Binary checkpoint: the `dmlbench.numeric` container with magic
    b"ENC1", dims (vocab, embed, out, classes), and the blocks in order."""
    dims = (params.vocab_size, params.embed_dim, params.out_dim, params.num_classes)
    write_arrays(path, MAGIC, dims, [arr for _, arr in params.blocks()])


def load_encoder(path) -> EncoderParams:
    return EncoderParams(*read_arrays(path, MAGIC, 4, block_shapes)[1])

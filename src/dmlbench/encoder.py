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
text has an embedding.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .numeric import Rng, add_rows_at, fnv1a_64, read_arrays, write_arrays

MAGIC = b"ENC1"
DEFAULT_VOCAB = 4096
DEFAULT_EMBED_DIM = 32
DEFAULT_OUT_DIM = 16

_PUNCT = string.punctuation


def block_shapes(vocab: int, embed: int, out: int, classes: int) -> list[tuple[int, ...]]:
    """The shapes of the five parameter blocks, in checkpoint order."""
    return [(vocab, embed), (embed, out), (out,), (out, classes), (classes,)]


class EncoderParams:
    """All trainable arrays. Block order is the checkpoint layout order.

    Decay settled on read. A trained model's table can hold rows that no
    training text used: their gradient was zero at every step, so each
    step's AdamW update of such a row was the decoupled decay alone,
    ``tmp = p * wd; tmp += 0.0; tmp *= lr; p -= tmp`` (see
    `dmlbench.trainer.AdamW`). `defer_decay` records those steps' learning
    rates and weight decay instead of applying them; a stale row replays the
    same operations in step order when it is first read, so it ends with the
    bits it would have had if every step had touched it. `forward_batch`
    settles only the rows it gathers; `embedding_table`, `blocks()` and so
    `save_encoder` settle the whole table. No public path returns an
    unsettled row.
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
        self._stale = None  # (V,) bool: the rows that owe the steps in _decay

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
        return [
            ("embedding_table", self.embedding_table),
            ("projection", self.projection),
            ("projection_bias", self.projection_bias),
            ("classifier", self.classifier),
            ("classifier_bias", self.classifier_bias),
        ]

    def defer_decay(self, fresh_rows: np.ndarray, lrs: list[float], weight_decay: float) -> None:
        """Every row outside `fresh_rows` owes one decay step per entry of
        `lrs`, in order, to be applied when the row is first read."""
        self._settle()
        stale = np.ones(self.vocab_size, dtype=bool)
        stale[fresh_rows] = False
        if stale.any():
            self._stale = stale
            self._decay = (tuple(lrs), weight_decay)  # (each step's lr, weight decay)

    def _settle(self, ids: np.ndarray | None = None) -> None:
        """Apply the owed decay steps to the stale rows among `ids`, or to
        every stale row when `ids` is None."""
        if self._stale is None:
            return
        if ids is None:
            rows = np.flatnonzero(self._stale)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            rows = np.unique(ids[self._stale[ids]])
        if rows.size:
            lrs, weight_decay = self._decay
            block = self._table[rows]
            tmp = np.empty_like(block)
            for lr in lrs:
                np.multiply(block, weight_decay, out=tmp)
                # as adding AdamW's +0.0 update does: a -0.0 decay becomes
                # +0.0, and a -0.0 entry keeps its sign
                tmp += 0.0
                tmp *= lr
                block -= tmp
            self._table[rows] = block
            self._stale[rows] = False
        if ids is None:
            self._stale = None

    def table_for(self, ids: np.ndarray) -> np.ndarray:
        """The table with the rows `ids` settled: read only those rows of it."""
        self._settle(ids)
        return self._table


def init_encoder(
    num_classes: int, vocab_size: int, embed_dim: int, out_dim: int, rng: Rng
) -> EncoderParams:
    """Gaussian(0, 0.1) init for every block, drawn from one stream in
    checkpoint order so a given seed always yields the same model."""
    if num_classes < 1 or vocab_size < 1 or embed_dim < 1 or out_dim < 1:
        raise ConfigError("encoder dimensions must be positive")
    shapes = block_shapes(vocab_size, embed_dim, out_dim, num_classes)
    return EncoderParams(*(rng.normal(int(np.prod(s)), scale=0.1).reshape(s) for s in shapes))


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB) -> list[int]:
    if vocab_size < 1:
        raise ConfigError("vocab_size must be positive")
    ids = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCT)
        if token:
            ids.append(fnv1a_64(token.encode("utf-8")) % vocab_size)
    return ids if ids else [0]


def classify_logits(params: EncoderParams, z: np.ndarray) -> np.ndarray:
    return z @ params.classifier + params.classifier_bias


@dataclass
class ForwardCache:
    """Intermediates saved by forward_batch for the manual backward pass."""

    ids: np.ndarray  # (total tokens,) every text's token ids, one text after another
    lengths: np.ndarray  # (L,) tokens per text
    pooled: np.ndarray  # (L, d_emb) mean embedding per text
    embeddings: np.ndarray  # (L, d) tanh outputs


def forward_batch(
    params: EncoderParams, token_lists: list[list[int]]
) -> tuple[np.ndarray, ForwardCache]:
    """Embeddings z = tanh(mean(embedding rows) @ projection + bias) of a
    batch of token-id lists, shape (L, d), with the cache for backward_batch.

    The rows are pooled one token position at a time over every text still
    that long, so each text's sum runs in token order starting from zero
    (for embed_dim >= 2 the sum numpy's mean over the text's rows takes),
    and the memory grows with the tokens, not with L times the longest text.
    Only the gathered rows are settled (see EncoderParams).
    """
    if not token_lists:
        raise DimensionError("need at least one text")
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    if not lengths.all():
        raise DimensionError("every text needs at least one token (tokenize maps '' to [0])")
    ids = np.fromiter(
        itertools.chain.from_iterable(token_lists), dtype=np.int64, count=int(lengths.sum())
    )
    # texts longest first, so the texts with a token at position j are a prefix
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    longest_first = lengths[order]
    table = params.table_for(ids)
    sums = np.zeros((len(token_lists), params.embed_dim))
    for j in range(int(longest_first[0])):
        active = int(np.count_nonzero(longest_first > j))
        sums[:active] += table[ids[starts[:active] + j]]
    pooled = np.empty_like(sums)
    pooled[order] = sums / longest_first[:, None]
    z = np.tanh(pooled @ params.projection + params.projection_bias)
    return z, ForwardCache(ids, lengths, pooled, z)


def backward_batch(
    params: EncoderParams, cache: ForwardCache, grad_embeddings: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients for every parameter block given the upstream gradient on
    the batch embeddings.

    Returns a dict keyed like EncoderParams.blocks(); the classifier blocks
    are zero, as the caller chains its own head gradient. Each text's pooled
    gradient is distributed over its embedding rows in proportion to how
    often the row's token occurs in the text. The (text, token) pairs are
    counted with one np.unique and scattered in (text, token) order with
    one add_rows_at, so every table row sums its texts' terms in text order.
    """
    z = cache.embeddings
    # C-ordered whatever the params' layout, for add_rows_at
    grads = {name: np.zeros(arr.shape, dtype=arr.dtype) for name, arr in params.blocks()}
    grad_z = np.asarray(grad_embeddings, dtype=np.float64)
    grad_u = grad_z * (1.0 - z * z)  # through tanh
    grads["projection"] = cache.pooled.T @ grad_u
    grads["projection_bias"] = grad_u.sum(axis=0)
    grad_pooled = grad_u @ params.projection.T  # (L, d_emb)
    vocab = params.vocab_size
    text_of = np.repeat(np.arange(cache.lengths.size), cache.lengths)
    pairs, counts = np.unique(text_of * vocab + cache.ids, return_counts=True)
    texts, rows = np.divmod(pairs, vocab)
    shares = counts / cache.lengths[texts]
    add_rows_at(grads["embedding_table"], rows, shares[:, None] * grad_pooled[texts])
    return grads


def save_encoder(params: EncoderParams, path) -> None:
    """Binary checkpoint: the `dmlbench.numeric` container with magic
    b"ENC1", dims (vocab, embed, out, classes), and the blocks in order."""
    dims = (params.vocab_size, params.embed_dim, params.out_dim, params.num_classes)
    write_arrays(path, MAGIC, dims, [arr for _, arr in params.blocks()])


def load_encoder(path) -> EncoderParams:
    return EncoderParams(*read_arrays(path, MAGIC, 4, block_shapes)[1])

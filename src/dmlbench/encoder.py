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
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .numeric import Rng, add_rows_at, fnv1a_64

MAGIC = b"ENC1"
DEFAULT_VOCAB = 4096
DEFAULT_EMBED_DIM = 32
DEFAULT_OUT_DIM = 16

_PUNCT = string.punctuation


@dataclass
class EncoderParams:
    """All trainable arrays. Field order is the checkpoint layout order."""

    embedding_table: np.ndarray  # (V, d_emb)
    projection: np.ndarray  # (d_emb, d)
    projection_bias: np.ndarray  # (d,)
    classifier: np.ndarray  # (d, C)
    classifier_bias: np.ndarray  # (C,)

    def __post_init__(self):
        v, d_emb = self.embedding_table.shape
        if self.projection.shape[0] != d_emb:
            raise DimensionError("projection rows must match embedding width")
        d = self.projection.shape[1]
        if self.projection_bias.shape != (d,):
            raise DimensionError("projection bias must match output width")
        if self.classifier.shape[0] != d:
            raise DimensionError("classifier rows must match output width")
        if self.classifier_bias.shape != (self.classifier.shape[1],):
            raise DimensionError("classifier bias must match class count")

    @property
    def vocab_size(self) -> int:
        return self.embedding_table.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embedding_table.shape[1]

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

    def copy(self) -> "EncoderParams":
        return EncoderParams(*(arr.copy() for _, arr in self.blocks()))


def init_encoder(
    num_classes: int,
    vocab_size: int = DEFAULT_VOCAB,
    embed_dim: int = DEFAULT_EMBED_DIM,
    out_dim: int = DEFAULT_OUT_DIM,
    rng: Rng | None = None,
) -> EncoderParams:
    """Gaussian(0, 0.1) init for every block, drawn from one stream in
    checkpoint order so a given seed always yields the same model."""
    if num_classes < 1 or vocab_size < 1 or embed_dim < 1 or out_dim < 1:
        raise ConfigError("encoder dimensions must be positive")
    rng = rng if rng is not None else Rng(0)
    shapes = [
        (vocab_size, embed_dim),
        (embed_dim, out_dim),
        (out_dim,),
        (out_dim, num_classes),
        (num_classes,),
    ]
    arrays = [rng.normal(int(np.prod(s)), scale=0.1).reshape(s) for s in shapes]
    return EncoderParams(*arrays)


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB) -> list[int]:
    if vocab_size < 1:
        raise ConfigError("vocab_size must be positive")
    ids = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCT)
        if token:
            ids.append(fnv1a_64(token.encode("utf-8")) % vocab_size)
    return ids if ids else [0]


def encode(params: EncoderParams, token_ids: list[int]) -> np.ndarray:
    """z = tanh(mean(embedding rows) @ projection + bias), shape (d,)."""
    x = params.embedding_table[np.asarray(token_ids, dtype=np.int64)].mean(axis=0)
    return np.tanh(x @ params.projection + params.projection_bias)


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
    table = params.embedding_table
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
    """Binary checkpoint: b"ENC1", four little-endian u32 dims (vocab,
    embed, out, classes), then each block as little-endian f8 row-major."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(
            struct.pack(
                "<IIII",
                params.vocab_size,
                params.embed_dim,
                params.out_dim,
                params.num_classes,
            )
        )
        for _, arr in params.blocks():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_encoder(path) -> EncoderParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ConfigError(f"bad encoder checkpoint magic {magic!r}")
        vocab, embed, out, classes = struct.unpack("<IIII", fh.read(16))
        shapes = [(vocab, embed), (embed, out), (out,), (out, classes), (classes,)]
        arrays = []
        for shape in shapes:
            count = int(np.prod(shape))
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ConfigError("encoder checkpoint is truncated")
            arrays.append(np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape))
        if fh.read(1):
            raise ConfigError("encoder checkpoint has trailing bytes")
    return EncoderParams(*arrays)

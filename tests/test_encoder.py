import struct

import numpy as np
import pytest

from dmlbench.encoder import (
    MAGIC,
    EncoderParams,
    backward_batch,
    classify_logits,
    encode,
    forward_batch,
    init_encoder,
    load_encoder,
    save_encoder,
    tokenize,
)
from dmlbench.errors import ConfigError, DimensionError
from dmlbench.numeric import Rng, fd_gradient


def tiny_params(seed=0, vocab=7, embed=3, out=2, classes=2):
    return init_encoder(classes, vocab, embed, out, Rng(seed))


def flatten_params(params):
    return np.concatenate([arr.ravel() for _, arr in params.blocks()])


def unflatten_params(flat, template):
    arrays = []
    offset = 0
    for _, arr in template.blocks():
        arrays.append(flat[offset : offset + arr.size].reshape(arr.shape).copy())
        offset += arr.size
    return EncoderParams(*arrays)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Hello, World!") == tokenize("hello world")

    def test_interior_punctuation_kept(self):
        # only leading/trailing punctuation is stripped
        assert tokenize("don't") != tokenize("dont")

    def test_blank_text_gets_sentinel(self):
        assert tokenize("") == [0]
        assert tokenize("  ... !!! ") == [0]

    def test_ids_in_range(self):
        ids = tokenize("the quick brown fox jumps over the lazy dog", 50)
        assert all(0 <= i < 50 for i in ids)
        assert len(ids) == 9

    def test_deterministic(self):
        text = "Representation learning with proxies."
        assert tokenize(text) == tokenize(text)

    def test_repeated_word_repeats_id(self):
        a, b = tokenize("buffalo buffalo")
        assert a == b

    def test_vocab_must_be_positive(self):
        with pytest.raises(ConfigError):
            tokenize("x", 0)


class TestInit:
    def test_shapes(self):
        p = init_encoder(4, 100, 8, 5, Rng(1))
        assert p.embedding_table.shape == (100, 8)
        assert p.projection.shape == (8, 5)
        assert p.projection_bias.shape == (5,)
        assert p.classifier.shape == (5, 4)
        assert p.classifier_bias.shape == (4,)
        assert (p.vocab_size, p.embed_dim, p.out_dim, p.num_classes) == (100, 8, 5, 4)

    def test_deterministic_per_seed(self):
        a = init_encoder(3, 50, 6, 4, Rng(9))
        b = init_encoder(3, 50, 6, 4, Rng(9))
        c = init_encoder(3, 50, 6, 4, Rng(10))
        for (_, xa), (_, xb), (_, xc) in zip(a.blocks(), b.blocks(), c.blocks()):
            assert np.array_equal(xa, xb)
            assert not np.array_equal(xa, xc)

    def test_init_scale(self):
        p = init_encoder(2, 2000, 16, 8, Rng(2))
        flat = p.embedding_table.ravel()
        assert abs(flat.mean()) < 0.01
        assert abs(flat.std() - 0.1) < 0.01

    def test_dimension_validation(self):
        with pytest.raises(ConfigError):
            init_encoder(0, 10, 4, 2, Rng(0))
        with pytest.raises(ConfigError):
            init_encoder(2, 10, 0, 2, Rng(0))

    def test_params_shape_checks(self):
        p = tiny_params()
        with pytest.raises(DimensionError):
            EncoderParams(
                p.embedding_table,
                p.projection[:, :1],
                p.projection_bias,
                p.classifier,
                p.classifier_bias,
            )

    def test_copy_is_independent(self):
        p = tiny_params()
        q = p.copy()
        q.projection_bias[0] += 1.0
        assert p.projection_bias[0] != q.projection_bias[0]


class TestForward:
    def test_encode_matches_formula(self):
        p = tiny_params()
        ids = [1, 1, 4]
        x = p.embedding_table[[1, 1, 4]].mean(axis=0)
        expected = np.tanh(x @ p.projection + p.projection_bias)
        assert np.allclose(encode(p, ids), expected)

    def test_outputs_bounded(self):
        p = tiny_params(3)
        z = encode(p, [0, 2, 5])
        assert np.all(np.abs(z) < 1.0)

    def test_batch_matches_single(self):
        p = tiny_params(4)
        lists = [[0, 3], [2], [5, 5, 1]]
        z, cache = forward_batch(p, lists)
        assert z.shape == (3, p.out_dim)
        for i, ids in enumerate(lists):
            assert np.allclose(z[i], encode(p, ids))
        assert cache.embeddings is z

    def test_logits_shape(self):
        p = tiny_params(5)
        z, _ = forward_batch(p, [[1], [2]])
        logits = classify_logits(p, z)
        assert logits.shape == (2, p.num_classes)
        assert np.allclose(logits, z @ p.classifier + p.classifier_bias)

    def test_empty_batch_rejected(self):
        with pytest.raises(DimensionError):
            forward_batch(tiny_params(), [])

    def test_empty_token_list_rejected(self):
        # tokenize never returns [], so an empty list is a caller error,
        # not a text to embed as NaN
        with pytest.raises(DimensionError):
            forward_batch(tiny_params(), [[], [1]])


class TestBackward:
    # chain rule through the whole model, checked against finite
    # differences over every parameter block at once

    LISTS = [[1, 1, 4], [0, 2], [6], [3, 5, 5, 5]]

    def run_fd(self, loss_of_embeddings, upstream_of_embeddings, seed):
        params = tiny_params(seed)
        z, cache = forward_batch(params, self.LISTS)
        grads = backward_batch(params, cache, upstream_of_embeddings(z))
        analytic = np.concatenate([grads[name].ravel() for name, _ in params.blocks()])

        def f(flat):
            p = unflatten_params(flat, params)
            z2, _ = forward_batch(p, self.LISTS)
            return loss_of_embeddings(z2)

        fd = fd_gradient(f, flatten_params(params))
        for i, (a, n) in enumerate(zip(analytic, fd)):
            if abs(n) < 1e-6:
                assert abs(a - n) < 1e-8, f"coordinate {i}"
            else:
                assert abs(a - n) / abs(n) < 1e-4, f"coordinate {i}"

    def test_linear_upstream_on_embeddings(self):
        A = Rng(200).normal(8).reshape(4, 2)

        def loss(z):
            return float((A * z).sum())

        self.run_fd(loss, lambda z: A, seed=6)

    def test_quadratic_upstream(self):
        def loss(z):
            return 0.5 * float((z * z).sum())

        self.run_fd(loss, lambda z: z.copy(), seed=8)

    def test_no_logit_grad_leaves_classifier_untouched(self):
        params = tiny_params(9)
        z, cache = forward_batch(params, self.LISTS)
        grads = backward_batch(params, cache, np.ones_like(z))
        assert np.all(grads["classifier"] == 0.0)
        assert np.all(grads["classifier_bias"] == 0.0)
        assert np.any(grads["projection"] != 0.0)

    def test_untouched_vocab_rows_get_zero(self):
        params = tiny_params(10)
        z, cache = forward_batch(params, [[1], [3]])
        grads = backward_batch(params, cache, np.ones_like(z))
        touched = np.nonzero(np.any(grads["embedding_table"] != 0.0, axis=1))[0]
        assert touched.tolist() == [1, 3]

    def test_repeated_token_weighted_by_count(self):
        params = tiny_params(11)
        z, cache = forward_batch(params, [[2, 2, 5]])
        grads = backward_batch(params, cache, np.ones_like(z))
        row2 = grads["embedding_table"][2]
        row5 = grads["embedding_table"][5]
        assert np.allclose(row2, 2.0 * row5)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = tiny_params(12, vocab=11, embed=4, out=3, classes=5)
        path = tmp_path / "enc.bin"
        save_encoder(p, path)
        q = load_encoder(path)
        for (name, a), (_, b) in zip(p.blocks(), q.blocks()):
            assert np.array_equal(a, b), name
            assert b.dtype == np.float64

    def test_byte_layout(self, tmp_path):
        p = tiny_params(13, vocab=2, embed=1, out=1, classes=1)
        path = tmp_path / "enc.bin"
        save_encoder(p, path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert struct.unpack("<IIII", blob[4:20]) == (2, 1, 1, 1)
        # payload: 2 table values, then projection, biases, classifier
        first = struct.unpack("<d", blob[20:28])[0]
        assert first == p.embedding_table[0, 0]
        assert len(blob) == 20 + 8 * 6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoder(tiny_params(14), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError):
            load_encoder(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoder(tiny_params(15), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ConfigError):
            load_encoder(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoder(tiny_params(16), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConfigError):
            load_encoder(path)

"""Masked self-attention tests: encodings, prefix reuse, validation.

Hand anchors:

* with wq = wk = 0 every unmasked logit is 0, so attention is uniform over
  the allowed columns; with wv = wo = I and zero biases the output of a row
  is then the plain mean of the queries it may see.  For two queries and
  x_prev = 1 that is out[0] = q0 (sees only itself) and
  out[1] = (q0 + q1) / 2;
* the frequency ladder starts at 2*pi / 100, so position (25, 0, 50)
  encodes (for dim 6) to [sin(pi/2), cos(pi/2), sin 0, cos 0, sin pi,
  cos pi] = [1, 0, 0, 1, 0, -1];
* all ladder frequencies are integer multiples of 2*pi / 100, hence the
  encoding is exactly 100-periodic along every axis.
"""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import softmax

from fgs.attention import (AttentionWeights, HEADS, LAMBDA_MAX, MODEL_DIM,
                           asa_forward, positional_encoding)
from fgs.errors import InvalidInputError


def _identity_weights(dim, heads=2):
    eye = np.eye(dim)
    zero = np.zeros(dim)
    return AttentionWeights(np.zeros((dim, dim)), np.zeros((dim, dim)),
                            eye, eye, zero, zero, zero, zero, heads=heads)


# ---------------------------------------------------------------------------
# Positional encoding
# ---------------------------------------------------------------------------

def test_encoding_origin_alternates_zero_one():
    for dim in (6, 12, 252):
        npt.assert_allclose(positional_encoding(np.zeros(3), dim),
                            np.tile([0.0, 1.0], dim // 2))


def test_encoding_hand_values_at_dim_six():
    pe = positional_encoding(np.array([25.0, 0.0, 50.0]), 6)
    npt.assert_allclose(pe, [1.0, 0.0, 0.0, 1.0, 0.0, -1.0], atol=1e-12)


def test_encoding_interleaves_sin_cos_on_doubling_frequencies():
    p = np.array([3.0, -7.0, 11.0])
    dim = 24
    m = dim // 6
    pe = positional_encoding(p, dim)
    freqs = 2.0 * np.pi * 2.0 ** np.arange(m) / LAMBDA_MAX
    want = []
    for axis in range(3):
        for f in freqs:
            want += [np.sin(f * p[axis]), np.cos(f * p[axis])]
    npt.assert_allclose(pe, want, atol=1e-12)


def test_encoding_batch_matches_rows_and_validates():
    rng = np.random.default_rng(17)
    batch = rng.uniform(-20, 20, size=(5, 3))
    enc = positional_encoding(batch, 18)
    assert enc.shape == (5, 18)
    for i in range(5):
        npt.assert_array_equal(enc[i], positional_encoding(batch[i], 18))
    # a width past a multiple of 6 adds a zero tail
    npt.assert_array_equal(positional_encoding(batch, 23),
                           np.pad(enc, ((0, 0), (0, 5))))
    for bad in (0, -6):
        with pytest.raises(InvalidInputError):
            positional_encoding(batch, bad)
    with pytest.raises(InvalidInputError):
        positional_encoding(np.zeros((5, 2)), 6)


def test_encoding_is_periodic_in_the_longest_wavelength():
    rng = np.random.default_rng(4)
    p = rng.uniform(-30, 30, size=(8, 3))
    for axis in range(3):
        shifted = p.copy()
        shifted[:, axis] += LAMBDA_MAX
        npt.assert_allclose(positional_encoding(shifted, 12),
                            positional_encoding(p, 12), atol=1e-9)


# ---------------------------------------------------------------------------
# Weights container
# ---------------------------------------------------------------------------

def test_weights_seeded_and_validation():
    assert AttentionWeights.seeded().dim == MODEL_DIM
    assert AttentionWeights.seeded().heads == HEADS
    with pytest.raises(InvalidInputError):
        AttentionWeights.seeded(dim=32, heads=5)  # 32 % 5 != 0
    with pytest.raises(InvalidInputError):
        _identity_weights(4, heads=3)
    with pytest.raises(InvalidInputError):
        AttentionWeights(np.zeros((4, 3)), np.zeros((4, 4)), np.zeros((4, 4)),
                         np.zeros((4, 4)), np.zeros(4), np.zeros(4),
                         np.zeros(4), np.zeros(4))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_uniform_attention_hand_case():
    q = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                  [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]])
    pos = np.zeros((2, 3))
    out = asa_forward(q, pos, _identity_weights(6), 1)
    npt.assert_allclose(out[0], q[0], atol=1e-12)
    npt.assert_allclose(out[1], (q[0] + q[1]) / 2.0, atol=1e-12)


def test_forward_matches_reference_softmax_attention():
    rng = np.random.default_rng(23)
    n, d, h, x_prev = 7, 12, 2, 3
    q = rng.normal(size=(n, d))
    pos = rng.uniform(-10, 10, size=(n, 3))
    w = AttentionWeights.seeded(dim=d, heads=h, seed=41)
    got = asa_forward(q, pos, w, x_prev)
    assert np.all(np.isfinite(got))

    qk_in = q + positional_encoding(pos, d)
    bq = qk_in @ w.wq.T + w.bq
    bk = qk_in @ w.wk.T + w.bk
    bv = q @ w.wv.T + w.bv
    blocked = np.zeros((n, n), dtype=bool)
    blocked[:x_prev, x_prev:] = True
    dh = d // h
    pieces = []
    for i in range(h):
        sl = slice(i * dh, (i + 1) * dh)
        logits = bq[:, sl] @ bk[:, sl].T / np.sqrt(dh)
        attn = softmax(np.where(blocked, -np.inf, logits), axis=1)
        pieces.append(attn @ bv[:, sl])
    want = np.concatenate(pieces, axis=1) @ w.wo.T + w.bo
    npt.assert_allclose(got, want, atol=1e-12)


def test_forward_prefix_rows_match_prefix_only_run():
    rng = np.random.default_rng(8)
    n, d, x_prev = 10, 16, 6
    q = rng.normal(size=(n, d))
    pos = rng.uniform(-5, 5, size=(n, 3))
    w = AttentionWeights.seeded(dim=d, heads=4, seed=2)
    full = asa_forward(q, pos, w, x_prev)
    prefix = asa_forward(q[:x_prev], pos[:x_prev], w, x_prev)
    npt.assert_allclose(full[:x_prev], prefix, atol=1e-12)
    # new rows do see the old ones, so they must differ from a fresh run
    alone = asa_forward(q[x_prev:], pos[x_prev:], w, 0)
    assert np.max(np.abs(full[x_prev:] - alone)) > 1e-6


def test_forward_prefix_is_bitwise_immune_to_suffix_positions():
    rng = np.random.default_rng(14)
    n, d, x_prev = 9, 12, 4
    q = rng.normal(size=(n, d))
    pos = rng.uniform(-5, 5, size=(n, 3))
    moved = pos.copy()
    moved[x_prev:] += rng.uniform(1.0, 3.0, size=(n - x_prev, 3))
    w = AttentionWeights.seeded(dim=d, heads=3, seed=5)
    a = asa_forward(q, pos, w, x_prev)
    b = asa_forward(q, moved, w, x_prev)
    npt.assert_array_equal(a[:x_prev], b[:x_prev])
    assert np.max(np.abs(a[x_prev:] - b[x_prev:])) > 1e-9


def test_forward_empty_and_validation():
    w = AttentionWeights.seeded(dim=12, heads=2)
    out = asa_forward(np.zeros((0, 12)), np.zeros((0, 3)), w, 0)
    assert out.shape == (0, 12)
    with pytest.raises(InvalidInputError):
        asa_forward(np.zeros((3, 8)), np.zeros((3, 3)), w, 0)
    for bad in (4, -1, 1.0, 1.5, "1", None):
        with pytest.raises(InvalidInputError):
            asa_forward(np.zeros((3, 12)), np.zeros((3, 3)), w, bad)
    with pytest.raises(InvalidInputError):
        asa_forward(np.zeros((3, 12)), np.zeros((4, 3)), w, 0)
    with pytest.raises(InvalidInputError):
        asa_forward(np.zeros(12), np.zeros(3), w, 0)

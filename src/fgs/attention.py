"""Prefix-preserving masked self-attention over Gaussian queries.

When a scene grows, queries of previously settled layers must not change.
`asa_forward` takes the count x_prev of settled rows: rows below it attend
over the settled columns only, and new rows over all columns, so settled
outputs equal a run on the settled prefix alone, bit for bit.  Each row
range is computed in blocks of ROW_BLOCK rows per head and no (n, n) array
is built.  Positions enter through a sinusoidal 3-axis encoding added to Q
and K inputs only - values stay position-free, which keeps the prefix
outputs reusable.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

HEADS = 8
MODEL_DIM = 256
LAMBDA_MAX = 100.0  # meters; longest wavelength of the positional ladder
ROW_BLOCK = 1024    # query rows per head and softmax block in asa_forward


def positional_encoding(positions: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal encoding of 3-D positions on a geometric frequency ladder.

    Each axis contributes dim // 6 interleaved (sin, cos) pairs at
    frequencies 2*pi * 2^k / LAMBDA_MAX, k = 0.. ; the dim % 6 entries past
    them are zero (model dims are rarely multiples of 6).  The origin
    therefore encodes to the alternating (0, 1, 0, 1, ...) pattern.
    Accepts one (3,) position or an (N, 3) batch, and any positive `dim`.
    """
    if dim <= 0:
        raise InvalidInputError("encoding dim must be positive")
    p = np.asarray(positions, dtype=np.float64)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    if p.ndim != 2 or p.shape[1] != 3:
        raise InvalidInputError("positions must be (3,) or (N, 3)")
    m = dim // 6
    freqs = 2.0 * np.pi * (2.0 ** np.arange(m)) / LAMBDA_MAX
    phase = p[:, :, None] * freqs[None, None, :]        # (N, 3, m)
    block = np.empty((p.shape[0], 3, 2 * m))
    block[:, :, 0::2] = np.sin(phase)
    block[:, :, 1::2] = np.cos(phase)
    out = np.zeros((p.shape[0], dim))
    out[:, :6 * m] = block.reshape(p.shape[0], 6 * m)
    return out[0] if single else out


@dataclass
class AttentionWeights:
    """Projection matrices of one multi-head attention block."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray
    heads: int = HEADS

    def __post_init__(self):
        d = self.dim
        for name in ("wq", "wk", "wv", "wo"):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            if w.shape != (d, d):
                raise InvalidInputError(f"{name} must be square ({d}, {d})")
            setattr(self, name, w)
        for name in ("bq", "bk", "bv", "bo"):
            b = np.asarray(getattr(self, name), dtype=np.float64)
            if b.shape != (d,):
                raise InvalidInputError(f"{name} must be ({d},)")
            setattr(self, name, b)
        if self.heads <= 0 or d % self.heads:
            raise InvalidInputError("model dim must divide evenly into heads")

    @property
    def dim(self) -> int:
        return np.asarray(self.wq).shape[0]

    @classmethod
    def seeded(cls, dim: int = MODEL_DIM, heads: int = HEADS, seed: int = 0):
        rng = np.random.default_rng(seed)
        mk = lambda: rng.standard_normal((dim, dim)) / np.sqrt(dim)
        z = np.zeros(dim)
        return cls(mk(), mk(), mk(), mk(), z, z, z, z, heads=heads)


def asa_forward(queries: np.ndarray, positions: np.ndarray,
                weights: AttentionWeights, x_prev: int) -> np.ndarray:
    """Masked multi-head self-attention with position-aware Q/K only.

    Q and K project (queries + positional encoding); V projects the bare
    queries.  Per head: softmax(Q K^T / sqrt(D/h)) V over the columns a row
    may see, heads concatenated and output-projected.  The first `x_prev`
    rows are settled and attend to the first x_prev columns only, so they
    equal the same computation run on the prefix alone, bit for bit; the
    other rows attend to every column.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise InvalidInputError("queries must be (n, D)")
    n, d = q.shape
    if d != weights.dim:
        raise InvalidInputError(f"queries dim {d} != weights dim {weights.dim}")
    if not isinstance(x_prev, numbers.Integral) or not 0 <= x_prev <= n:
        raise InvalidInputError(f"need an integer 0 <= x_prev <= {n}")
    p = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if p.shape != (n, 3):
        raise InvalidInputError("positions must be (n, 3)")
    if n == 0:
        return np.zeros((0, d))

    h = weights.heads
    dh = d // h
    qk_in = q + positional_encoding(p, d)
    # 1/sqrt(dh) folded into Q scales n*d entries instead of every logit
    big_q = (qk_in @ weights.wq.T + weights.bq) * (1.0 / np.sqrt(dh))
    big_k = qk_in @ weights.wk.T + weights.bk
    big_v = q @ weights.wv.T + weights.bv

    out = np.empty((n, d))
    with np.errstate(under="ignore"):
        for i in range(h):
            sl = slice(i * dh, (i + 1) * dh)
            # contiguous per head, so no block multiplies strided columns
            k_t = big_k[:, sl].T.copy()
            v = big_v[:, sl].copy()
            # settled rows see settled columns; new rows see every column
            for first, stop, cols in ((0, x_prev, x_prev), (x_prev, n, n)):
                for lo in range(first, stop, ROW_BLOCK):
                    rows = slice(lo, min(lo + ROW_BLOCK, stop))
                    logits = big_q[rows, sl] @ k_t[:, :cols]
                    logits -= logits.max(axis=1, keepdims=True)
                    np.exp(logits, out=logits)
                    # normalized after @ V: a divide per output, not per logit
                    out[rows, sl] = ((logits @ v[:cols])
                                     / logits.sum(axis=1, keepdims=True))
    return out @ weights.wo.T + weights.bo

"""Sparse polynomial kernel: products and Poisson brackets of term maps.

Polynomials are finite maps from exponent tuples to real coefficients.
The exponent tuple lists the canonical variables in the order
(x1, p1, x2, p2, ...), so a polynomial over ``num_pairs`` canonical pairs
uses tuples of length ``2 * num_pairs``.

Both operations run on numpy arrays.  Exponent tuples are packed into
int64 mixed-radix keys, the radix of each variable being one more than
the largest exponent a product can give it, so adding two keys adds the
exponents.  Term pairs are formed in blocks of rows of ``a``, and each
coefficient is accumulated sequentially in the order of the loop

    for each term of a, for each term of b, (for each canonical pair k):
        out[e] = out.get(e, 0.0) + contribution

with results listed in first-occurrence order, so every coefficient and
its position in the returned dict equal that loop's to the bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

BACKEND = "numpy"

#: term pairs (times canonical pairs, for ``poisson``) formed at once;
#: bounds the temporaries whatever the input size
BLOCK_PAIRS = 8192

_INT64_MAX = int(np.iinfo(np.int64).max)

#: overflow yields inf/nan silently, as with Python floats; PhaseSpacePoly
#: rejects non-finite coefficients
_ieee_quiet = np.errstate(over="ignore", invalid="ignore")


@_ieee_quiet
def mul(a: dict, b: dict, nvars: int) -> dict:
    """Exact product of two sparse polynomials (no degree truncation)."""
    if not a or not b:
        return {}
    ea, eb, ca, cb, radix, strides = _pack(a, b, nvars)
    ka, kb = ea @ strides, eb @ strides

    def blocks():
        for rows in _row_blocks(len(a), len(b)):
            yield (ka[rows, None] + kb).ravel(), (ca[rows, None] * cb).ravel()

    return _accumulate(blocks(), radix, strides)


@_ieee_quiet
def poisson(a: dict, b: dict, num_pairs: int) -> dict:
    """Poisson bracket sum_k (df/dx_k dg/dp_k - df/dp_k dg/dx_k).

    Both cross terms for a canonical pair k land on the same exponent
    vector (one less x_k and one less p_k than the plain product), so the
    bracket is accumulated pairwise with the single integer weight
    x_k(a) p_k(b) - p_k(a) x_k(b), skipping pairs of weight 0.
    """
    if not a or not b:
        return {}
    ea, eb, ca, cb, radix, strides = _pack(a, b, 2 * num_pairs)
    ka, kb = ea @ strides, eb @ strides
    shift = strides[0::2] + strides[1::2]

    def blocks():
        for rows in _row_blocks(len(a), len(b) * num_pairs):
            # exponents are below their radix and the radix product fits
            # int64, so neither product overflows
            w = (ea[rows, None, 0::2] * eb[:, 1::2]
                 - ea[rows, None, 1::2] * eb[:, 0::2])
            live = w != 0
            keys = (ka[rows, None, None] + kb[:, None]) - shift
            vals = (ca[rows, None] * cb)[:, :, None] * w
            yield keys[live], vals[live]

    return _accumulate(blocks(), radix, strides)


def _pack(a: dict, b: dict, nvars: int):
    """Exponent arrays and coefficients of both operands, and the key
    radix and stride of each variable."""
    ea = np.array(list(a), dtype=np.int64).reshape(len(a), nvars)
    eb = np.array(list(b), dtype=np.int64).reshape(len(b), nvars)
    if ea.min() < 0 or eb.min() < 0:
        raise ShapeError("exponents must be >= 0")
    radix = ea.max(axis=0) + eb.max(axis=0) + 1
    if math.prod(radix.tolist()) > _INT64_MAX:
        raise ShapeError(f"exponent ranges {radix.tolist()} overflow int64 packed keys")
    strides = np.ones(nvars, dtype=np.int64)
    strides[:-1] = np.cumprod(radix[:0:-1])[::-1]
    ca = np.array(list(a.values()), dtype=np.float64)
    cb = np.array(list(b.values()), dtype=np.float64)
    return ea, eb, ca, cb, radix, strides


def _row_blocks(num_rows: int, width: int):
    step = max(1, BLOCK_PAIRS // width)
    for start in range(0, num_rows, step):
        yield slice(start, start + step)


def _accumulate(blocks, radix: np.ndarray, strides: np.ndarray) -> dict:
    """Sum contributions per key, over (keys, values) blocks in loop order.

    Keys get slots in first-occurrence order, and ``np.add.at`` adds in
    index order, so each coefficient is the sequential sum.  Zero sums
    are dropped.
    """
    slot_keys = np.empty(0, dtype=np.int64)  # distinct keys so far, by slot
    acc = np.empty(0)                        # coefficient by slot
    for keys, vals in blocks:
        if keys.size == 0:
            continue
        # The slotted keys lead the pool and are distinct, so each is its
        # own first occurrence and keeps its slot; the block's new keys
        # follow in first-occurrence order.
        num_old = slot_keys.size
        pool = np.concatenate([slot_keys, keys])
        order = np.argsort(pool, kind="stable")
        ranked = pool[order]
        head = np.empty(pool.size, dtype=bool)
        head[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        firsts = order[head]  # a stable sort starts each run at its first occurrence
        is_first = np.zeros(pool.size, dtype=bool)
        is_first[firsts] = True
        # a key's slot is the rank of its first occurrence among all firsts
        slot = np.empty(pool.size, dtype=np.int64)
        slot[order] =(np.cumsum(is_first) - 1)[firsts][np.cumsum(head) - 1]
        slot_keys = pool[is_first]
        acc = np.concatenate([acc, np.zeros(slot_keys.size - num_old)])
        np.add.at(acc, slot[num_old:], vals)
    nonzero = acc != 0.0
    exps = slot_keys[nonzero, None] // strides % radix
    return dict(zip(map(tuple, exps.tolist()), acc[nonzero].tolist()))

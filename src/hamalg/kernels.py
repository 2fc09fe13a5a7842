"""Sparse polynomial kernel: products and Poisson brackets of term maps.

Polynomials are finite maps from exponent tuples to real coefficients.
The exponent tuple lists the canonical variables in the order
(x1, p1, x2, p2, ...), so a polynomial over ``num_pairs`` canonical pairs
uses tuples of length ``2 * num_pairs``.

Both operations run on numpy arrays.  Exponent tuples are packed into
int64 mixed-radix keys, the radix of each variable being one more than
the largest exponent a product can give it, so adding two keys adds the
exponents; where those keys would overflow int64, the exponent rows are
the keys.  Term pairs are formed in blocks of rows of ``a``, and each
coefficient is accumulated sequentially in the order of the loop

    for each term of a, for each term of b, (for each canonical pair k):
        out[e] = out.get(e, 0.0) + contribution

with results listed in first-occurrence order, so every coefficient and
its position in the returned dict equal that loop's to the bit.

``pack`` and ``accumulate`` also serve the term-pair engine of
``compose``: one slotting routine sums scalar and matrix coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

BACKEND = "numpy"

#: term pairs formed at once, times canonical pairs for ``poisson`` and
#: times contributions and matrix entries in ``compose``; bounds the
#: temporaries whatever the number of terms
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
    ea, eb, ca, cb, radix, strides = pack(a, b, nvars)
    ka, kb = keys_of(ea, strides), keys_of(eb, strides)

    def blocks():
        for rows in row_blocks(len(a), len(b)):
            keys = (ka[rows, None] + kb).reshape((-1,) + kb.shape[1:])
            yield keys, (ca[rows, None] * cb).ravel()

    return accumulate(blocks(), radix, strides)


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
    ea, eb, ca, cb, radix, strides = pack(a, b, 2 * num_pairs)
    ka, kb = keys_of(ea, strides), keys_of(eb, strides)
    # one less x_k and one less p_k, by canonical pair k
    shift = keys_of(np.eye(num_pairs, dtype=np.int64).repeat(2, axis=1), strides)

    def blocks():
        for rows in row_blocks(len(a), len(b) * num_pairs):
            w = poisson_weights(ea[rows], eb)
            live = w != 0
            keys = (ka[rows, None, None] + kb[:, None]) - shift
            vals = (ca[rows, None] * cb)[:, :, None] * w
            yield keys[live], vals[live]

    return accumulate(blocks(), radix, strides)


def poisson_weights(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """x_k(a) p_k(b) - p_k(a) x_k(b) by (a-term, b-term, k); below int64 max
    because each product is below the (checked) square of the largest radix."""
    return ea[:, None, 0::2] * eb[:, 1::2] - ea[:, None, 1::2] * eb[:, 0::2]


def pack(a: dict, b: dict, nvars: int, dtype=np.float64):
    """Exponent arrays and coefficients of both operands, and the key
    radix and stride of each variable.

    A radix product past int64 gives ``strides`` None: the keys are then
    the exponent rows.  ``ShapeError`` only where an exponent sum or a
    Poisson weight could overflow int64.
    """
    ea = np.array(list(a), dtype=np.int64).reshape(len(a), nvars)
    eb = np.array(list(b), dtype=np.int64).reshape(len(b), nvars)
    if ea.min() < 0 or eb.min() < 0:
        raise ShapeError("exponents must be >= 0")
    radix = ea.max(axis=0) + eb.max(axis=0) + 1  # wraps below 1 past int64
    if radix.min() >= 1 and math.prod(radix.tolist()) <= _INT64_MAX:
        strides = np.ones(nvars, dtype=np.int64)
        strides[:-1] = np.cumprod(radix[:0:-1])[::-1]
    elif radix.min() >= 1 and max(radix.tolist()) ** 2 <= _INT64_MAX:
        strides = None
    else:
        raise ShapeError(f"exponent ranges {radix.tolist()} overflow int64 packed keys")
    ca = np.array(list(a.values()), dtype=dtype)
    cb = np.array(list(b.values()), dtype=dtype)
    return ea, eb, ca, cb, radix, strides


def keys_of(exps: np.ndarray, strides: np.ndarray | None) -> np.ndarray:
    """Keys of exponent rows: packed int64, or the rows where ``strides`` is None."""
    return exps if strides is None else exps @ strides


def row_blocks(num_rows: int, width: int):
    step = max(1, BLOCK_PAIRS // width)
    for start in range(0, num_rows, step):
        yield slice(start, start + step)


def accumulate(blocks, radix: np.ndarray, strides: np.ndarray | None, shape=(),
               dtype=np.float64) -> dict:
    """Sum contributions per key, over (keys, values) blocks in loop order.

    Keys get slots in first-occurrence order, and ``np.add.at`` adds in
    index order, so each coefficient is the sequential sum.  Zero sums
    are dropped.  Values of trailing ``shape`` (matrices) are summed
    elementwise and come back read-only; scalars come back as floats.
    Keys are packed int64, or exponent rows where ``strides`` is None.
    """
    rows = strides is None
    slot_keys = np.empty((0, len(radix)) if rows else 0, dtype=np.int64)  # by slot
    acc = np.empty((0,) + shape, dtype)  # coefficient by slot
    for keys, vals in blocks:
        if len(keys) == 0:
            continue
        # The slotted keys lead the pool and are distinct, so each is its
        # own first occurrence and keeps its slot; the block's new keys
        # follow in first-occurrence order.
        num_old = len(slot_keys)
        pool = np.concatenate([slot_keys, keys])
        order = np.lexsort(pool.T[::-1]) if rows else np.argsort(pool, kind="stable")
        ranked = pool[order]
        head = np.empty(len(pool), dtype=bool)
        head[0] = True
        if rows:
            np.any(ranked[1:] != ranked[:-1], axis=1, out=head[1:])
        else:
            np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        firsts = order[head]  # a stable sort starts each run at its first occurrence
        is_first = np.zeros(len(pool), dtype=bool)
        is_first[firsts] = True
        # a key's slot is the rank of its first occurrence among all firsts
        slot = np.empty(len(pool), dtype=np.int64)
        slot[order] =(np.cumsum(is_first) - 1)[firsts][np.cumsum(head) - 1]
        slot_keys = pool[is_first]
        # a slot's first add copies exactly: -0.0, not 0.0, is the identity
        acc = np.concatenate([acc, -np.zeros((len(slot_keys) - num_old,) + shape, dtype)])
        np.add.at(acc, slot[num_old:], vals)
    live = acc.reshape(len(acc), math.prod(shape)).any(axis=1)
    exps = slot_keys[live] if rows else slot_keys[live, None] // strides % radix
    acc = acc[live]
    acc.setflags(write=False)
    return dict(zip(map(tuple, exps.tolist()), acc.tolist() if acc.ndim == 1 else acc))

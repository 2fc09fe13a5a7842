"""Sparse polynomial kernel: sums, products and Poisson brackets of term arrays.

A polynomial in ``n`` canonical pairs is a *term array*: exponent rows
``exps`` of shape (N, 2n), int64, listing the canonical variables in the
order (x1, p1, x2, p2, ...), and a coefficient stack ``coeffs`` of shape
(N, *c).  The coefficient shape c is () for a real polynomial, (d, d) for
one with matrix coefficients, led by a trial axis T in a block: (T,) or
(T, d, d).  Every coefficient, scalar or matrix, goes through the one
engine ``term_pair_sum``; ``mul`` and ``poisson`` are thin adaptors for
polynomials written as dicts from exponent tuples to floats.

Exponent rows are packed into int64 mixed-radix keys, the radix of each
variable being one more than the largest exponent a product can give it,
so adding two keys adds the exponents and every key lies in the box
``range(prod(radix))``.  Term pairs are formed in blocks of rows of the
left operand, and each coefficient is accumulated sequentially in the
order of the loop

    for each term of a, for each term of b, (for each canonical pair k):
        out[e] = out.get(e, 0.0) + contribution

with results listed in first-occurrence order, so every coefficient and
its position equal that loop's to the bit.

``accumulate`` slots the contributions by one of three routes (``route``):

* ``dense``: the packed key is the index of its slot in an accumulator
  over the whole box.  Taken when the box has at most
  ``DENSE_SLOTS_PER_PAIR`` slots per term pair the call forms, and at most
  ``DENSE_ENTRIES`` coefficient entries in all: a block's slot holds a
  (T,) or (T, d, d) stack, so the cap is on entries, not slots;
* ``sorted``: packed keys too sparse in their box, or a box too large to
  hold, get slots by a stable sort of each block on its own, whose
  distinct keys are then looked up among the earlier blocks' slots;
* ``rows``: where packed keys would overflow int64, the exponent rows are
  the keys, each row one bytes key, slotted as ``sorted`` slots.

Each route holds its sums flat, ``prod(shape)`` entries a slot, and adds
a block with one 1-D ``np.add.at``.  Past the dense route's one zeroed
box, slotting a block costs time in proportion to that block alone.

The sum of two term arrays, ``term_sum``, slots both operands' rows the
same way, so it lists the left operand's terms, then the right one's new
terms, as merging two dicts does.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .errors import ShapeError

BACKEND = "numpy"

#: term pairs formed at once, times the contributions of a pair and the
#: entries of a coefficient; bounds the temporaries whatever the number of
#: terms
BLOCK_PAIRS = 8192

#: most trials evaluated in one block of a brackets or identity check:
#: bounds the block's temporaries and the trials a witness search
#: evaluates past its first violation
MAX_BLOCK_TRIALS = 256

#: box slots per term pair up to which packed keys index a dense
#: accumulator; past it, zeroing and scanning the box can outweigh sorting
DENSE_SLOTS_PER_PAIR = 4

#: most coefficient entries (slots times entries per coefficient) a dense
#: accumulator holds: bounds its memory for matrix coefficients
DENSE_ENTRIES = 1 << 20

_INT64_MAX = int(np.iinfo(np.int64).max)

#: overflow yields inf/nan silently, as with Python floats; PhaseSpacePoly
#: rejects non-finite coefficients
_ieee_quiet = np.errstate(over="ignore", invalid="ignore")


def mul(a: dict, b: dict, nvars: int) -> dict:
    """Exact product of two sparse polynomials written as dicts."""
    return _on_dicts(mul_terms, a, b, nvars)


def poisson(a: dict, b: dict, num_pairs: int) -> dict:
    """Poisson bracket of two sparse polynomials written as dicts."""
    return _on_dicts(poisson_terms, a, b, 2 * num_pairs)


def _on_dicts(op, a: dict, b: dict, nvars: int) -> dict:
    """``op`` on two dict polynomials, as a dict of exponent tuples to floats."""
    (ea, ca), (eb, cb) = dict_rows(a, nvars), dict_rows(b, nvars)
    exps, coeffs = op(ea, eb, ca, cb)
    return dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))


def dict_rows(terms: dict, nvars: int):
    """Exponent rows and float coefficients of a dict polynomial."""
    exps = np.array(list(terms), dtype=np.int64).reshape(len(terms), nvars)
    return exps, np.array(list(terms.values()), dtype=np.float64)


def mul_terms(ea, eb, ca, cb):
    """Exact product of two real term arrays (no degree truncation)."""
    return term_pair_sum(ea, eb, ca, cb, np.multiply, True, False)


def poisson_terms(ea, eb, ca, cb):
    """Poisson bracket sum_k (df/dx_k dg/dp_k - df/dp_k dg/dx_k) of two real
    term arrays: the Poisson contributions of ``term_pair_sum`` alone."""
    return term_pair_sum(ea, eb, ca, cb, np.multiply, False, True)


@_ieee_quiet
def term_pair_sum(ea, eb, A, B, combine, plain: bool, poisson: bool):
    """Exponent rows and coefficients of a sum over the term pairs of two
    term arrays, in the order of the loop of the module docstring.

    A term pair (a, b) contributes, in this order: with ``plain``, P at
    ea + eb; with ``poisson``, for k ascending, w_k * Q at ea + eb - e_xk -
    e_pk wherever w_k = xa_k pb_k - pa_k xb_k is nonzero.  Both Poisson
    cross terms for a canonical pair k land on that exponent, so one
    integer weight carries them.  ``combine`` maps coefficient stacks
    (Na, 1, *c) and (1, Nb, *c) to P, or Q, or with both flags (P, Q); a P
    of None contributes nothing.  The route (``route``) counts the
    contributions the flags declare.

    Broadcast products equal per-pair products to the bit (``@`` does,
    ``einsum`` does not), so in every trial of a block the result, key
    order included, is the written-out loop's; only the sign and payload
    of a NaN, which IEEE 754 leaves open, may differ.  Where packed keys
    would overflow int64, the exponent rows are the keys; ``ShapeError``
    only where a Poisson weight could overflow.
    """
    shape = A.shape[1:]
    if not len(ea) or not len(eb):
        return ea[:0], A[:0]
    radix, strides = product_box(ea, eb)
    ka, kb = keys_of(ea, strides), keys_of(eb, strides)
    # exponent shift per contribution: the plain term, then each canonical pair
    num_pairs = ea.shape[1] // 2
    shifts = np.eye(1 + num_pairs, num_pairs, -1, dtype=np.int64).repeat(2, axis=1)
    offsets = keys_of(shifts[1 - plain:1 + num_pairs * poisson], strides)

    def blocks():
        for rows in row_blocks(len(ka), len(kb) * len(offsets) * math.prod(shape)):
            keys = (ka[rows, None] + kb)[:, :, None] - offsets
            vals = combine(A[rows, None], B[None])
            if poisson:
                first, anti = vals if plain else (None, vals)
                w = poisson_weights(ea[rows], eb)
                vals = w.astype(A.dtype).reshape(w.shape + (1,) * len(shape)) * anti[:, :, None]
                live = w != 0
                if first is not None:
                    vals = np.concatenate([first[:, :, None], vals], axis=2)
                    live = np.concatenate([np.ones_like(live[..., :1]), live], axis=2)
                elif plain:
                    keys = keys[:, :, 1:]
                keys, vals = keys[live], vals[live]
            yield keys.reshape((-1,) + kb.shape[1:]), vals.reshape((-1,) + shape)

    pairs = len(ka) * len(kb) * len(offsets)
    return accumulate(blocks(), radix, strides, pairs, shape, A.dtype)


@_ieee_quiet
def term_sum(ea, eb, A, B):
    """Exponent rows and coefficients of the sum of two term arrays: a's
    terms, then b's new ones, each shared coefficient a + b, zero sums
    dropped; as merging b's terms into a's dict."""
    rows = np.concatenate([ea, eb])
    radix = rows.max(axis=0, initial=0) + 1
    strides = key_strides(radix)
    return accumulate([(keys_of(rows, strides), np.concatenate([A, B]))], radix, strides,
                      len(rows), A.shape[1:], A.dtype)


def poisson_weights(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """x_k(a) p_k(b) - p_k(a) x_k(b) by (a-term, b-term, k); below int64 max
    because each product is below the (checked) square of the largest radix."""
    return ea[:, None, 0::2] * eb[:, 1::2] - ea[:, None, 1::2] * eb[:, 0::2]


def product_box(ea: np.ndarray, eb: np.ndarray):
    """The key radix and strides of each variable for the products of rows
    of ``ea`` and ``eb``.

    A radix product past int64 gives ``strides`` None: the keys are then
    the exponent rows.  ``ShapeError`` only where an exponent sum or a
    Poisson weight could overflow int64.
    """
    if ea.min() < 0 or eb.min() < 0:
        raise ShapeError("exponents must be >= 0")
    radix = ea.max(axis=0) + eb.max(axis=0) + 1  # wraps below 1 past int64
    strides = key_strides(radix)
    if strides is None and not (radix.min() >= 1 and max(radix.tolist()) ** 2 <= _INT64_MAX):
        raise ShapeError(f"exponent ranges {radix.tolist()} overflow int64 packed keys")
    return radix, strides


def key_strides(radix: np.ndarray) -> np.ndarray | None:
    """Packed-key stride of each variable; None where the box passes int64."""
    if radix.min() < 1 or math.prod(radix.tolist()) > _INT64_MAX:
        return None
    strides = np.ones(len(radix), dtype=np.int64)
    strides[:-1] = np.cumprod(radix[:0:-1])[::-1]
    return strides


def keys_of(exps: np.ndarray, strides: np.ndarray | None) -> np.ndarray:
    """Keys of exponent rows: packed int64, or the rows where ``strides`` is None."""
    return exps if strides is None else exps @ strides


def row_blocks(num_rows: int, width: int):
    step = max(1, BLOCK_PAIRS // width)
    for start in range(0, num_rows, step):
        yield slice(start, start + step)


def route(radix: np.ndarray, strides: np.ndarray | None, pairs: int, shape) -> str:
    """How ``accumulate`` slots keys: ``"dense"``, ``"sorted"`` or ``"rows"``
    (see the module docstring), from the key box, the number of term pairs
    the call forms and the coefficient shape."""
    if strides is None:
        return "rows"
    size = math.prod(radix.tolist())
    if size <= DENSE_SLOTS_PER_PAIR * pairs and size * math.prod(shape) <= DENSE_ENTRIES:
        return "dense"
    return "sorted"


def accumulate(blocks, radix: np.ndarray, strides: np.ndarray | None, pairs: int, shape,
               dtype):
    """Sum contributions per key, over (keys, values) blocks in loop order,
    into exponent rows and the coefficient stack of those rows.

    ``pairs`` is the number of term pairs the blocks hold in all, which
    with the key box and ``shape`` picks the route (``route``).  Every
    route starts a slot at -0.0, the exact identity of addition, adds a
    block with one ``np.add.at`` over the flat entries of its slots, each
    entry's contributions in index order, so each coefficient is the
    sequential sum, and lists slots in first-occurrence order: the routes
    return the same arrays to the bit.  Slots whose sum is zero in every
    entry are dropped.  Keys are packed int64, or exponent rows where
    ``strides`` is None.
    """
    kind = route(radix, strides, pairs, shape)
    if kind == "dense":
        slot_keys, acc = _dense_slots(blocks, math.prod(radix.tolist()), shape, dtype)
    else:
        slot_keys, acc = _sorted_slots(blocks, kind == "rows", len(radix), shape, dtype)
    live = acc.reshape(len(acc), math.prod(shape)).any(axis=1)
    exps = slot_keys[live] if kind == "rows" else slot_keys[live, None] // strides % radix
    return exps, acc[live]


def _signed_zeros(shape, dtype) -> np.ndarray:
    """-0.0 in every entry (both parts of a complex one): a slot's first
    add then copies exactly."""
    acc = np.zeros(shape, dtype)
    return np.negative(acc, out=acc)


def _flat(slots: np.ndarray, width: int) -> np.ndarray:
    """Flat accumulator index of every entry of each slot, slot by slot."""
    return (slots[:, None] * width + np.arange(width)).ravel()


def _dense_slots(blocks, size: int, shape, dtype):
    """Keys and sums of the touched slots of the box, in first-occurrence
    order: each packed key indexes its own slot, and ``first`` keeps the
    position of its first contribution."""
    width = math.prod(shape)
    acc = _signed_zeros(size * width, dtype)
    first = np.full(size, _INT64_MAX, dtype=np.int64)
    seen = 0
    for keys, vals in blocks:
        np.add.at(acc, _flat(keys, width), vals.ravel())
        np.minimum.at(first, keys, np.arange(seen, seen + len(keys)))
        seen += len(keys)
    touched = np.flatnonzero(first != _INT64_MAX)
    slot_keys = touched[np.argsort(first[touched])]
    return slot_keys, acc.reshape((size,) + shape)[slot_keys]


def _sorted_slots(blocks, rows: bool, nvars: int, shape, dtype):
    """Keys and sums by slot, slots in first-occurrence order.  Each block
    is sorted alone, an exponent row as one bytes key; its distinct keys
    are looked up in a dict of the earlier slots, built once a second
    block arrives, and its new keys take the next slots.  The flat sums
    at least double when they grow."""
    width = math.prod(shape)
    key_type = np.dtype(f"V{8 * nvars}" if rows else np.int64)
    found = []  # each block's new keys, in slot order
    acc = _signed_zeros(0, dtype)
    count, index = 0, None  # slots so far, and a dict of their keys
    for keys, vals in blocks:
        if len(keys) == 0:
            continue
        if rows:
            keys = np.ascontiguousarray(keys).view(key_type).ravel()
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        head = np.empty(len(keys), dtype=bool)
        head[0] = True
        head[1:] = ranked[1:] != ranked[:-1]
        firsts = order[head]  # a stable sort starts each run at its first occurrence
        is_first = np.zeros(len(keys), dtype=bool)
        is_first[firsts] = True
        # a key's index in the block is the rank of its first occurrence
        local = np.empty(len(keys), dtype=np.int64)
        local[order] = (np.cumsum(is_first) - 1)[firsts][np.cumsum(head) - 1]
        distinct = keys[is_first]
        slot = np.arange(count, count + len(distinct))
        if count:
            index = index or dict(zip(found[0].tolist(), range(count)))
            old = np.fromiter(map(index.get, distinct.tolist(), repeat(-1)), np.int64,
                              len(distinct))
            new = old < 0
            distinct, slot = distinct[new], np.where(new, np.cumsum(new) - 1 + count, old)
            index.update(zip(distinct.tolist(), range(count, count + len(distinct))))
        found.append(distinct)
        count += len(distinct)
        if count * width > len(acc):
            grow = max(len(acc), count * width - len(acc))
            acc = np.concatenate([acc, _signed_zeros(grow, dtype)])
        np.add.at(acc, _flat(slot[local], width), vals.ravel())
    slot_keys = np.concatenate(found) if found else np.empty(0, key_type)
    if rows:
        slot_keys = slot_keys.view(np.int64).reshape(-1, nvars)
    return slot_keys, acc[:count * width].reshape((count,) + shape)

"""Sparse polynomial kernel: sums, products and Poisson brackets of term arrays.

A polynomial in ``n`` canonical pairs is a *term array*: exponent rows
``exps`` of shape (N, 2n), int64, listing the canonical variables in the
order (x1, p1, x2, p2, ...), and a coefficient stack ``coeffs`` of shape
(N, *c).  The coefficient shape c is () for a real polynomial, (d, d) for
one with matrix coefficients, followed in a block by a trial axis T, the
innermost: (T,) or (d, d, T).  Every coefficient, scalar or matrix, goes
through the one engine ``term_pair_sum``; ``mul`` and ``poisson`` are thin
adaptors for polynomials written as dicts from exponent tuples to floats.

Each coefficient is accumulated sequentially in the order of the loop

    for each term of a, for each term of b, (for each canonical pair k):
        out[e] = out.get(e, 0.0) + contribution

with results listed in first-occurrence order, so every coefficient and
its position equal that loop's to the bit.

A product or sum runs in two passes.  The *plan* (``Plan``) is the
structure of the sum: the slot of every contribution in loop order, -1
where a Poisson weight is zero, and the exponent rows of the slots in
first-occurrence order.  It depends on the exponent rows of both
operands and on which contributions the call makes, never on the
coefficients.  The *values* are then formed in blocks of rows of the
left operand and added into their slots, one flat ``np.add.at`` a block,
over a -0.0 accumulator of ``prod(shape)`` entries a slot; slots that
are zero in every entry are dropped.

``cli.main`` runs each report inside ``plan_scope``.  There a plan is
built once and reused by every later call on the same exponent rows and
contributions, whatever the coefficient shape, so blocks of 1 and of 256
trials share one; leaving the scope drops every plan.  Outside a scope
each call builds its plan and discards it.

Exponent rows are packed into int64 mixed-radix keys, the radix of each
variable being one more than the largest exponent a product can give it,
so adding two keys adds the exponents and every key lies in the box
``range(prod(radix))``.  ``slot_plan`` slots the keys, in blocks of rows
of the left operand, by one of three routes (``route``):

* ``dense``: the packed key indexes the box, which records the position
  of each key's first contribution and its slot.  Taken when the box has
  at most ``DENSE_SLOTS_PER_PAIR`` slots per contribution, and at most
  ``DENSE_BOX_SLOTS`` slots in all, whatever the coefficient shape;
* ``sorted``: packed keys too sparse in their box, or a box too large,
  get slots by a stable sort of each block on its own, whose distinct
  keys are then looked up among the earlier blocks' slots;
* ``rows``: where packed keys would overflow int64, the exponent rows are
  the keys, each row one bytes key, slotted as ``sorted`` slots.

Every route gives the same plan.  Past the dense route's one box,
slotting a block costs time in proportion to that block alone.

The sum of two term arrays, ``term_sum``, slots both operands' rows the
same way, so it lists the left operand's terms, then the right one's new
terms, as merging two dicts does.
"""

from __future__ import annotations

import contextlib
import math
from itertools import repeat
from typing import NamedTuple

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

#: box slots per contribution up to which packed keys index a dense box;
#: past it, setting up and scanning the box can outweigh sorting
DENSE_SLOTS_PER_PAIR = 4

#: most slots of a dense box, which holds two integers a slot and no
#: coefficient, so its size does not depend on the coefficient shape
DENSE_BOX_SLOTS = 1 << 20

_INT64_MAX = int(np.iinfo(np.int64).max)

#: overflow yields inf/nan silently, as with Python floats; PhaseSpacePoly
#: rejects non-finite coefficients
_ieee_quiet = np.errstate(over="ignore", invalid="ignore")


class Plan(NamedTuple):
    """The structure of a sum of contributions: ``slots``, the slot of
    every contribution in loop order, -1 where a Poisson weight is zero,
    in the narrowest signed integer type that holds the slots, and
    ``exps``, the exponent rows of the slots in first-occurrence order."""

    slots: np.ndarray
    exps: np.ndarray


#: the plans of the current scope by the structure they stand for; None
#: outside a scope
_plans: dict | None = None


@contextlib.contextmanager
def plan_scope():
    """Keep the plans built inside the block for reuse there, and drop
    them all on leaving it, however it is left.  A scope inside another
    shares its plans."""
    global _plans
    outer = _plans
    if outer is None:
        _plans = {}
    try:
        yield
    finally:
        _plans = outer


def _planned(key: tuple, build) -> Plan:
    """The scope's plan for ``key``, built by ``build()`` on a miss; a
    fresh one outside a scope."""
    if _plans is None:
        return build()
    plan = _plans.get(key)
    if plan is None:
        plan = _plans[key] = build()
    return plan


def _rows_key(ea: np.ndarray, eb: np.ndarray) -> tuple:
    """The exponent rows of two operands as a plan key."""
    return ea.shape, eb.shape, ea.tobytes(), eb.tobytes()


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
    (Na, 1, *c) and (1, Nb, *c) to P, or Q, or with both flags (P, Q).

    Where ``combine`` forms the same bits on the broadcast stacks as on
    one pair (elementwise multiplies and adds do, so scalar coefficients
    and ``compose.coefficient_product`` do; a library contraction need
    not), every trial of a block gives the written-out loop's result, key
    order included; only the sign and payload of a NaN, which IEEE 754
    leaves open, may differ.  Where packed keys would overflow int64, the
    exponent rows are the keys; ``ShapeError`` only where a Poisson weight
    could overflow.
    """
    shape = A.shape[1:]
    if not len(ea) or not len(eb):
        return ea[:0], A[:0]
    width = math.prod(shape)
    plan = acc = None
    for rows in row_blocks(len(ea), len(eb) * (plain + poisson * (ea.shape[1] // 2)) * width):
        vals = combine(A[rows, None], B[None])
        if poisson:
            first, anti = vals if plain else (None, vals)
            w = poisson_weights(ea[rows], eb)
            # a zero weight's contribution has slot -1: the spare slot
            vals = w.astype(A.dtype).reshape(w.shape + (1,) * len(shape)) * anti[:, :, None]
            if plain:
                vals = np.concatenate([first[:, :, None], vals], axis=2)
        if plan is None:
            plan = product_plan(ea, eb, plain, poisson)
            per_row = len(plan.slots) // len(ea)
            acc = _accumulator(len(plan.exps), width, A.dtype)
        slots = plan.slots[rows.start * per_row:rows.stop * per_row]
        np.add.at(acc, _flat(slots, width), vals.ravel())
    return _live_slots(plan, acc, shape)


@_ieee_quiet
def term_sum(ea, eb, A, B):
    """Exponent rows and coefficients of the sum of two term arrays: a's
    terms, then b's new ones, each shared coefficient a + b, zero sums
    dropped; as merging b's terms into a's dict."""
    shape = A.shape[1:]
    plan = _planned(("sum",) + _rows_key(ea, eb), lambda: _sum_plan(ea, eb))
    width = math.prod(shape)
    acc = _accumulator(len(plan.exps), width, A.dtype)
    np.add.at(acc, _flat(plan.slots, width), np.concatenate([A, B]).ravel())
    return _live_slots(plan, acc, shape)


def product_plan(ea: np.ndarray, eb: np.ndarray, plain: bool, poisson: bool) -> Plan:
    """The plan of ``term_pair_sum`` on exponent rows ``ea`` and ``eb``
    whose contributions are the plain term pairs (``plain``) and the
    Poisson terms of each canonical pair (``poisson``)."""
    return _planned(("pairs", plain, poisson) + _rows_key(ea, eb),
                    lambda: _product_plan(ea, eb, plain, poisson))


def _product_plan(ea, eb, plain: bool, poisson: bool) -> Plan:
    radix, strides = product_box(ea, eb)
    ka, kb = keys_of(ea, strides), keys_of(eb, strides)
    # exponent shift per contribution: the plain term, then each canonical pair
    num_pairs = ea.shape[1] // 2
    shifts = np.eye(1 + num_pairs, num_pairs, -1, dtype=np.int64).repeat(2, axis=1)
    offsets = keys_of(shifts[1 - plain:1 + num_pairs * poisson], strides)

    def blocks():
        for rows in row_blocks(len(ka), len(kb) * len(offsets)):
            keys = (ka[rows, None] + kb)[:, :, None] - offsets
            live = None
            if poisson:
                live = poisson_weights(ea[rows], eb) != 0
                if plain:
                    live = np.concatenate([np.ones_like(live[..., :1]), live], axis=2)
                live = live.ravel()
            yield keys.reshape((-1,) + kb.shape[1:]), live

    return slot_plan(blocks(), radix, strides, len(ka) * len(kb) * len(offsets))


def _sum_plan(ea, eb) -> Plan:
    rows = np.concatenate([ea, eb])
    radix = rows.max(axis=0, initial=0) + 1
    strides = key_strides(radix)
    return slot_plan([(keys_of(rows, strides), None)], radix, strides, len(rows))


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


def route(radix: np.ndarray, strides: np.ndarray | None, pairs: int) -> str:
    """How ``slot_plan`` slots keys: ``"dense"``, ``"sorted"`` or ``"rows"``
    (see the module docstring), from the key box and the number of
    contributions the plan slots."""
    if strides is None:
        return "rows"
    size = math.prod(radix.tolist())
    if size <= DENSE_SLOTS_PER_PAIR * pairs and size <= DENSE_BOX_SLOTS:
        return "dense"
    return "sorted"


def slot_plan(blocks, radix: np.ndarray, strides: np.ndarray | None, pairs: int) -> Plan:
    """The plan of ``pairs`` contributions given as (keys, live) blocks in
    loop order: keys packed int64, or exponent rows where ``strides`` is
    None; ``live`` None, or a mask whose False marks a contribution of
    zero weight, which gets slot -1.  Slots are numbered in
    first-occurrence order, on every route (``route``) alike."""
    def live_blocks():  # (keys, positions in loop order) of the live contributions
        seen = 0
        for keys, live in blocks:
            at = np.arange(seen, seen + len(keys))
            seen += len(keys)
            yield (keys, at) if live is None else (keys[live], at[live])

    kind = route(radix, strides, pairs)
    slots = np.full(pairs, -1, np.min_scalar_type(-1 - pairs))  # no more slots than pairs
    if kind == "dense":
        slot_keys = _dense_slots(live_blocks(), math.prod(radix.tolist()), slots)
    else:
        slot_keys = _sorted_slots(live_blocks(), kind == "rows", len(radix), slots)
    exps = slot_keys if kind == "rows" else slot_keys[:, None] // strides % radix
    return Plan(slots.astype(np.min_scalar_type(-1 - len(exps)), copy=False), exps)


def _accumulator(count: int, width: int, dtype) -> np.ndarray:
    """-0.0, the exact identity of addition, in the ``width`` entries of
    each of ``count`` slots and of one spare last slot, which slot -1
    indexes; a slot's first add then copies exactly."""
    acc = np.zeros((count + 1) * width, dtype)
    return np.negative(acc, out=acc)


def _flat(slots: np.ndarray, width: int) -> np.ndarray:
    """Flat accumulator index of every entry of each slot, slot by slot;
    slot -1 gives the spare slot's entries, counted from the end."""
    if width == 1:
        return slots
    return (slots[:, None] * np.int64(width) + np.arange(width)).ravel()


def _live_slots(plan: Plan, acc: np.ndarray, shape):
    """Exponent rows and sums of the plan's slots that are nonzero in some
    entry.  Each entry took its contributions in index order, so each sum
    is the sequential sum."""
    count, width = len(plan.exps), math.prod(shape)
    sums = acc[:count * width]
    live = sums.reshape(count, width).any(axis=1)
    return plan.exps[live], sums.reshape((count,) + shape)[live]


def _dense_slots(blocks, size: int, slots: np.ndarray) -> np.ndarray:
    """Keys of the slots in first-occurrence order, from (keys, positions)
    blocks, with the slot of the contribution at each position written to
    ``slots``.  Each packed key indexes the box: ``first`` keeps the
    position of its first contribution, and a key whose first contribution
    lies in the block takes the next slot."""
    first = np.full(size, _INT64_MAX, dtype=np.int64)
    slot_of = np.empty(size, slots.dtype)
    found = []  # each block's new keys, in slot order
    count = 0
    for keys, at in blocks:
        np.minimum.at(first, keys, at)
        new = keys[first[keys] == at]
        slot_of[new] = np.arange(count, count + len(new))
        count += len(new)
        found.append(new)
        slots[at] = slot_of[keys]
    return np.concatenate(found) if found else np.empty(0, np.int64)


def _sorted_slots(blocks, rows: bool, nvars: int, slots: np.ndarray) -> np.ndarray:
    """Keys of the slots in first-occurrence order, from (keys, positions)
    blocks, with the slot of the contribution at each position written to
    ``slots``.  Each block is sorted alone, an exponent row as one bytes
    key; its distinct keys are looked up in a dict of the earlier slots,
    built once a second block arrives, and its new keys take the next
    slots."""
    key_type = np.dtype(f"V{8 * nvars}" if rows else np.int64)
    found = []  # each block's new keys, in slot order
    count, index = 0, None  # slots so far, and a dict of their keys
    for keys, at in blocks:
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
        slots[at] = slot[local]
    slot_keys = np.concatenate(found) if found else np.empty(0, key_type)
    if rows:
        slot_keys = slot_keys.view(np.int64).reshape(-1, nvars)
    return slot_keys

"""Independent brute-force expansions for cross-checking and replay.

Everything here works on dense coefficient arrays: polynomials become
ndarrays with one axis per variable, hybrid elements get two extra matrix
axes.  No code is shared with the sparse kernels or the production
bracket paths, so agreement between the two routes is evidence, not
tautology.

A product of two dense arrays multiplies every nonzero exponent cell of
its left operand with every nonzero cell of the right one in one
broadcast call and adds each left cell's products into the output box at
that cell; zero cells are never multiplied, so an infinite coefficient
meets no zero cell.  Every Poisson bracket -- of polynomials, the
Boucher-Traschen anticommutator term and the ordered matrix term -- takes
the same route: the pair products, each weighted by
``w_k = ea[x_k] eb[p_k] - ea[p_k] eb[x_k]`` and moved to
``ea + eb - delta_k``.  Only slicing, boolean masks and broadcasting are
used: no sorts, no packed keys, no scatter-adds.

The oracle promises values, not a summation order.  On exact inputs --
small-integer or Gaussian-integer coefficients, hbar 1/2, 1 or 2, and
NaN cells, whose spread through a sum does not depend on its order -- it
agrees with the main path to the bit, any NaN matching any NaN; on
generic inputs, to rounding.  Infinite cells agree as well, except in a
plain product of matrix coefficients: an entry with an infinite factor
is inf + inf j from elementwise complex products but nan + nan j from a
BLAS matrix product.  A bracket, which divides by i hbar or weighs
complex products, turns every such entry into NaN on both routes.

Serialized witnesses are replayed by parsing their JSON directly into
dense arrays and re-deriving the reported defect.
"""

from __future__ import annotations

import numpy as np


def _sum_shape(sa: tuple, sb: tuple) -> tuple:
    """Exponent extents of a product of boxes ``sa`` and ``sb``."""
    return tuple(x + y - 1 for x, y in zip(sa, sb))


def _pair_products(a: np.ndarray, b: np.ndarray, nza: np.ndarray, nzb: np.ndarray,
                   product) -> np.ndarray:
    """``product(a[ea], b[eb])`` for the i-th nonzero cell ``ea`` of ``a`` (C
    order) and every nonzero cell ``eb`` of ``b``, at ``[i, eb]``; the zero
    cells of ``b`` are never multiplied and hold 0."""
    prods = product(a[nza][:, None], b[nzb])
    out = np.zeros((len(prods),) + b.shape, dtype=prods.dtype)
    out[:, nzb] = prods
    return out


def _add_products(out: np.ndarray, nza: np.ndarray, prods: np.ndarray) -> None:
    """Add row i of ``_pair_products`` into the box ``ea + eb`` of the i-th
    nonzero cell ``ea``."""
    eas = np.argwhere(nza)
    ends = eas + prods.shape[1:1 + nza.ndim]
    for ea, end, term in zip(eas.tolist(), ends.tolist(), prods):
        out[tuple(map(slice, ea, end))] += term


def _poisson_boxes(ea: tuple, shape: tuple, k: int) -> tuple:
    """Source and destination slices that move the cells ``eb`` of a box of
    ``shape`` to ``ea + eb - delta_k`` (one off both axes of pair ``k``).
    A cell that would land below 0 has Poisson weight 0 and is cut."""
    src, dst = [], []
    for i, (e, n) in enumerate(zip(ea, shape)):
        shift = int(i // 2 == k)
        lo = int(shift > e)
        src.append(slice(lo, n))
        dst.append(slice(e - shift + lo, e - shift + n))
    return tuple(src), tuple(dst)


def _add_poisson_terms(out: np.ndarray, nza: np.ndarray, prods: np.ndarray,
                       num_pairs: int) -> None:
    """Add ``w_k * prods[i, eb]`` into ``ea + eb - delta_k`` for the i-th
    nonzero cell ``ea`` and every pair ``k``, where
    ``w_k = ea[x_k] eb[p_k] - ea[p_k] eb[x_k]``; a zero weight adds
    nothing."""
    eas = np.argwhere(nza)
    shape_b = prods.shape[1:1 + nza.ndim]
    grid = np.indices(shape_b)
    per_row = (-1,) + (1,) * nza.ndim
    over_matrix = (...,) + (None,) * (prods.ndim - 1 - nza.ndim)
    for k in range(num_pairs):
        ix, ip = 2 * k, 2 * k + 1
        w = eas[:, ix].reshape(per_row) * grid[ip] - eas[:, ip].reshape(per_row) * grid[ix]
        weighted = np.multiply(w[over_matrix], prods, out=np.zeros_like(prods),
                               where=(w != 0)[over_matrix])
        for ea, row in zip(map(tuple, eas.tolist()), weighted):
            if ea[ix] or ea[ip]:
                src, dst = _poisson_boxes(ea, shape_b, k)
                out[dst] += row[src]


# ---------------------------------------------------------------------------
# dense real polynomials (one axis per variable)
# ---------------------------------------------------------------------------

def poly_terms_to_dense(terms: dict, nvars: int) -> np.ndarray:
    extent = [1] * nvars
    for e in terms:
        for i, v in enumerate(e):
            extent[i] = max(extent[i], v + 1)
    out = np.zeros(tuple(extent))
    for e, c in terms.items():
        out[tuple(e)] = c
    return out


def dense_to_poly_terms(arr: np.ndarray) -> dict:
    nz = arr != 0.0
    return dict(zip(map(tuple, np.argwhere(nz).tolist()), arr[nz].tolist()))


def dense_poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(_sum_shape(a.shape, b.shape))
    nza = a != 0.0
    _add_products(out, nza, _pair_products(a, b, nza, b != 0.0, np.multiply))
    return out


def dense_poly_poisson(a: np.ndarray, b: np.ndarray, num_pairs: int) -> np.ndarray:
    out = np.zeros(_sum_shape(a.shape, b.shape))
    nza = a != 0.0
    _add_poisson_terms(out, nza, _pair_products(a, b, nza, b != 0.0, np.multiply),
                       num_pairs)
    return out


# ---------------------------------------------------------------------------
# dense hybrid elements (exponent axes + two matrix axes)
# ---------------------------------------------------------------------------

def hybrid_json_to_dense(data: dict) -> np.ndarray:
    """Parse the hybrid wire form straight into a dense array."""
    dim = int(data["dim"])
    nvars = 2 * int(data["num_pairs"])
    extent = [1] * nvars
    parts = data["parts"]
    for p in parts:
        for i, v in enumerate(p["exponents"]):
            extent[i] = max(extent[i], v + 1)
    out = np.zeros(tuple(extent) + (dim, dim), dtype=np.complex128)
    for p in parts:
        # [re, im] pairs as one float64 array: the bits of complex(re, im)
        mat = np.array(p["matrix"], dtype=np.float64).view(np.complex128).reshape(dim, dim)
        out[tuple(p["exponents"])] += mat
    return out


def _exp_shape(arr: np.ndarray) -> tuple:
    return arr.shape[:-2]


def dense_hybrid_norm(arr: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(arr) ** 2)))


def dense_hybrid_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = tuple(max(sa, sb) for sa, sb in zip(_exp_shape(a), _exp_shape(b)))
    out = np.zeros(shape + a.shape[-2:], dtype=np.complex128)
    out[tuple(slice(0, s) for s in _exp_shape(a))] += a
    out[tuple(slice(0, s) for s in _exp_shape(b))] += b
    return out


def dense_hybrid_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ordered associative product: matrix coefficients multiply as
    written, monomials add exponents."""
    out = np.zeros(_sum_shape(_exp_shape(a), _exp_shape(b)) + a.shape[-2:],
                   dtype=np.complex128)
    nza = a.any(axis=(-2, -1))
    _add_products(out, nza, _pair_products(a, b, nza, b.any(axis=(-2, -1)), np.matmul))
    return out


def _hybrid_poisson(a: np.ndarray, b: np.ndarray, num_pairs: int, product) -> np.ndarray:
    """Sum over term pairs of {x^ea, x^eb}_P product(A, B)."""
    out = np.zeros(_sum_shape(_exp_shape(a), _exp_shape(b)) + a.shape[-2:],
                   dtype=np.complex128)
    nza = a.any(axis=(-2, -1))
    _add_poisson_terms(out, nza, _pair_products(a, b, nza, b.any(axis=(-2, -1)), product),
                       num_pairs)
    return out


def dense_product_rule_poisson(a: np.ndarray, b: np.ndarray, num_pairs: int) -> np.ndarray:
    """Sum over term pairs of {x^ea, x^eb}_P [A, B]+ : the Poisson half of
    the Boucher-Traschen simple-product rule."""
    return _hybrid_poisson(a, b, num_pairs, lambda ma, mb: 0.5 * (ma @ mb + mb @ ma))


def dense_ordered_poisson(a: np.ndarray, b: np.ndarray, num_pairs: int) -> np.ndarray:
    """{U,V}_P with matrix coefficients multiplied in written order: the
    sum over term pairs of {x^ea, x^eb}_P A B."""
    return _hybrid_poisson(a, b, num_pairs, np.matmul)


def dense_commutator_bracket(a: np.ndarray, b: np.ndarray, hbar: float) -> np.ndarray:
    ab = dense_hybrid_mul(a, b)
    ba = dense_hybrid_mul(b, a)
    return dense_hybrid_add(ab, -ba) / (1j * hbar)


def dense_mixed_bracket(kind: str, a: np.ndarray, b: np.ndarray, hbar: float,
                        num_pairs: int) -> np.ndarray:
    if kind == "hybrid_paper":
        return dense_commutator_bracket(a, b, hbar)
    if kind == "boucher_traschen":
        # term-by-term simple-product rule: commutator on the product
        # monomial plus anticommutator on the monomial Poisson bracket
        comm = dense_commutator_bracket(a, b, hbar)
        return dense_hybrid_add(comm, dense_product_rule_poisson(a, b, num_pairs))
    if kind == "aleksandrov":
        comm = dense_commutator_bracket(a, b, hbar)
        sym = 0.5 * dense_hybrid_add(dense_ordered_poisson(a, b, num_pairs),
                                     -dense_ordered_poisson(b, a, num_pairs))
        return dense_hybrid_add(comm, sym)
    if kind == "anderson":
        comm = dense_commutator_bracket(a, b, hbar)
        return dense_hybrid_add(comm, dense_ordered_poisson(a, b, num_pairs))
    raise ValueError(f"unknown bracket kind {kind!r}")


@np.errstate(over="ignore", invalid="ignore")
def replay_defect(witness: dict, hbar: float) -> float:
    """Re-derive a serialized witness's defect entirely in dense arrays.

    Overflow yields inf/nan silently, as on the sparse path that found the
    witness, so a non-finite defect replays to a non-finite one.
    """
    kind = witness["kind"]
    desideratum = witness["desideratum"]
    elements = [hybrid_json_to_dense(e) for e in witness["elements"]]
    num_pairs = int(witness["elements"][0]["num_pairs"])

    def brk(x, y):
        return dense_mixed_bracket(kind, x, y, hbar, num_pairs)

    if desideratum == "antisymmetry":
        u, v = elements
        diff = dense_hybrid_add(brk(u, v), brk(v, u))
    elif desideratum == "jacobi":
        u, v, w = elements
        diff = dense_hybrid_add(
            dense_hybrid_add(brk(brk(u, v), w), brk(brk(v, w), u)), brk(brk(w, u), v)
        )
    elif desideratum == "derivation":
        u, v, w = elements
        lhs = brk(u, dense_hybrid_mul(v, w))
        rhs = dense_hybrid_add(dense_hybrid_mul(brk(u, v), w),
                               dense_hybrid_mul(v, brk(u, w)))
        diff = dense_hybrid_add(lhs, -rhs)
    else:
        raise ValueError(f"unknown desideratum {desideratum!r}")

    scale = 1.0
    for el in elements:
        scale *= dense_hybrid_norm(el)
    return dense_hybrid_norm(diff) / (1.0 + scale)

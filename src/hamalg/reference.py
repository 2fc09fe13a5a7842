"""Independent brute-force expansions for cross-checking and replay.

Everything here works on dense coefficient arrays with explicit nested
loops: polynomials become ndarrays with one axis per variable, hybrid
elements get two extra matrix axes.  No code is shared with the sparse
kernels or the production bracket paths, so agreement between the two
routes is evidence, not tautology.

Serialized witnesses are replayed by parsing their JSON directly into
dense arrays and re-deriving the reported defect term by term.
"""

from __future__ import annotations

import numpy as np

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
    return {e: float(arr[e]) for e in np.ndindex(arr.shape) if arr[e] != 0.0}


def dense_poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    out = np.zeros(shape)
    for ea in np.ndindex(a.shape):
        ca = a[ea]
        if ca == 0.0:
            continue
        for eb in np.ndindex(b.shape):
            cb = b[eb]
            if cb == 0.0:
                continue
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return out


def dense_poly_poisson(a: np.ndarray, b: np.ndarray, num_pairs: int) -> np.ndarray:
    shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    out = np.zeros(shape)
    for ea in np.ndindex(a.shape):
        ca = a[ea]
        if ca == 0.0:
            continue
        for eb in np.ndindex(b.shape):
            cb = b[eb]
            if cb == 0.0:
                continue
            for k in range(num_pairs):
                ix, ip = 2 * k, 2 * k + 1
                w = ea[ix] * eb[ip] - ea[ip] * eb[ix]
                if w == 0:
                    continue
                e = list(x + y for x, y in zip(ea, eb))
                e[ix] -= 1
                e[ip] -= 1
                out[tuple(e)] += ca * cb * w
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
        mat = np.array([complex(re, im) for re, im in p["matrix"]]).reshape(dim, dim)
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
    shape = tuple(sa + sb - 1 for sa, sb in zip(_exp_shape(a), _exp_shape(b)))
    out = np.zeros(shape + a.shape[-2:], dtype=np.complex128)
    for ea in np.ndindex(_exp_shape(a)):
        ma = a[ea]
        if not ma.any():
            continue
        for eb in np.ndindex(_exp_shape(b)):
            mb = b[eb]
            if not mb.any():
                continue
            out[tuple(x + y for x, y in zip(ea, eb))] += ma @ mb
    return out


def dense_hybrid_partial(a: np.ndarray, var: int) -> np.ndarray:
    shape = list(_exp_shape(a))
    shape[var] = max(shape[var] - 1, 1)
    out = np.zeros(tuple(shape) + a.shape[-2:], dtype=np.complex128)
    for e in np.ndindex(_exp_shape(a)):
        if e[var] == 0:
            continue
        de = list(e)
        de[var] -= 1
        out[tuple(de)] += e[var] * a[e]
    return out


def dense_ordered_poisson(a: np.ndarray, b: np.ndarray, num_pairs: int) -> np.ndarray:
    out = None
    for k in range(num_pairs):
        ix, ip = 2 * k, 2 * k + 1
        t1 = dense_hybrid_mul(dense_hybrid_partial(a, ix), dense_hybrid_partial(b, ip))
        t2 = dense_hybrid_mul(dense_hybrid_partial(a, ip), dense_hybrid_partial(b, ix))
        term = dense_hybrid_add(t1, -t2)
        out = term if out is None else dense_hybrid_add(out, term)
    return out


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
        shape = tuple(sa + sb - 1 for sa, sb in zip(_exp_shape(a), _exp_shape(b)))
        pois = np.zeros(shape + a.shape[-2:], dtype=np.complex128)
        for ea in np.ndindex(_exp_shape(a)):
            ma = a[ea]
            if not ma.any():
                continue
            for eb in np.ndindex(_exp_shape(b)):
                mb = b[eb]
                if not mb.any():
                    continue
                plus = 0.5 * (ma @ mb + mb @ ma)
                for k in range(num_pairs):
                    ix, ip = 2 * k, 2 * k + 1
                    w = ea[ix] * eb[ip] - ea[ip] * eb[ix]
                    if w == 0:
                        continue
                    e = list(x + y for x, y in zip(ea, eb))
                    e[ix] -= 1
                    e[ip] -= 1
                    pois[tuple(e)] += w * plus
        return dense_hybrid_add(comm, pois)
    if kind == "aleksandrov":
        comm = dense_commutator_bracket(a, b, hbar)
        sym = 0.5 * dense_hybrid_add(dense_ordered_poisson(a, b, num_pairs),
                                     -dense_ordered_poisson(b, a, num_pairs))
        return dense_hybrid_add(comm, sym)
    if kind == "anderson":
        comm = dense_commutator_bracket(a, b, hbar)
        return dense_hybrid_add(comm, dense_ordered_poisson(a, b, num_pairs))
    raise ValueError(f"unknown bracket kind {kind!r}")


def replay_defect(witness: dict, hbar: float = 1.0) -> float:
    """Re-derive a serialized witness's defect entirely in dense arrays."""
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

"""JSON wire forms for algebra elements.

Schema (one object per element, discriminated by "kind"):

* operator:  {"kind": "operator", "dim": d, "entries": [[re, im], ...]}
             entries row-major, one [re, im] pair per matrix entry
* poly:      {"kind": "poly", "num_pairs": n,
              "terms": [{"exponents": [...], "coeff": c}, ...]}
* kronecker: {"kind": "kronecker", "left_dim": l, "right_dim": r,
              "entries": [[re, im], ...]}
* hybrid:    {"kind": "hybrid", "dim": d, "num_pairs": n,
              "parts": [{"exponents": [...], "matrix": [[re, im], ...]}]}

Floating-point values are written by ``json``'s shortest round-trip
repr, which reads back to the same IEEE double, so serialized witnesses
replay to the bit.  Hermitian flags are re-detected on load.
"""

from __future__ import annotations

import numpy as np

from .compose import HybridElement, KroneckerElement
from .elements import OperatorElement, PhaseSpacePoly
from .errors import ShapeError


def _matrix_to_pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).reshape(-1, 2).tolist()


def _pairs_to_matrix(pairs, rows: int, cols: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    if flat.size != rows * cols:
        raise ShapeError(f"expected {rows * cols} entries, got {flat.size}")
    return flat.reshape(rows, cols)


def element_to_json(el) -> dict:
    if getattr(el, "trials", None) is not None:
        raise ShapeError("cannot serialize a block of trials; serialize trial(t)")
    if isinstance(el, KroneckerElement):   # before its base class, OperatorElement
        return {"kind": "kronecker", "left_dim": el.left_dim, "right_dim": el.right_dim,
                "entries": _matrix_to_pairs(el.entries)}
    if isinstance(el, OperatorElement):
        return {"kind": "operator", "dim": el.dim, "entries": _matrix_to_pairs(el.entries)}
    if isinstance(el, PhaseSpacePoly):
        terms = [{"exponents": list(e), "coeff": float(c)}
                 for e, c in sorted(el.terms.items())]
        return {"kind": "poly", "num_pairs": el.num_pairs, "terms": terms}
    if isinstance(el, HybridElement):
        parts = [{"exponents": list(e), "matrix": _matrix_to_pairs(m)}
                 for e, m in sorted(el.terms.items())]
        return {"kind": "hybrid", "dim": el.dim, "num_pairs": el.num_pairs, "parts": parts}
    raise ShapeError(f"cannot serialize {type(el).__name__}")


def element_from_json(data: dict):
    kind = data.get("kind")
    if kind == "operator":
        d = int(data["dim"])
        return OperatorElement(_pairs_to_matrix(data["entries"], d, d))
    if kind == "poly":
        terms = {tuple(t["exponents"]): float(t["coeff"]) for t in data["terms"]}
        return PhaseSpacePoly(int(data["num_pairs"]), terms)
    if kind == "kronecker":
        l, r = int(data["left_dim"]), int(data["right_dim"])
        return KroneckerElement(l, r, _pairs_to_matrix(data["entries"], l * r, l * r))
    if kind == "hybrid":
        d, n = int(data["dim"]), int(data["num_pairs"])
        terms = {tuple(p["exponents"]): _pairs_to_matrix(p["matrix"], d, d)
                 for p in data["parts"]}
        return HybridElement(d, n, terms)
    raise ShapeError(f"unknown element kind {kind!r}")

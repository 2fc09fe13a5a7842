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
replay to the bit: an element is its arrays, so it loads back equal.

``dumps_indent2`` writes a whole report: the text of
``json.dumps(report, indent=2)``, built faster.
"""

from __future__ import annotations

import json

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


# ---------------------------------------------------------------------------
# report text
# ---------------------------------------------------------------------------

class _Unsupported(Exception):
    """A value outside the exact builtin types the fast writer handles."""


_encode_string = json.encoder.encode_basestring_ascii


def _text(o, newline: str) -> str:
    """``o`` as ``json.dumps(indent=2)`` writes it at the depth ``newline``
    (a newline and the current indent) marks."""
    t = type(o)
    if t is float:
        if o - o == 0.0:   # finite
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if t is str:
        return _encode_string(o)
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is list:
        if not o:
            return "[]"
        inner = newline + "  "
        # [re, im] pairs of finite floats are the bulk of every witness
        pair = "[" + inner + "  %r," + inner + "  %r" + inner + "]"
        items = [pair % (v[0], v[1])
                 if type(v) is list and len(v) == 2 and type(v[0]) is float
                 and type(v[1]) is float and v[0] - v[0] == 0.0 and v[1] - v[1] == 0.0
                 else _text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in o.items():
            if type(key) is not str:
                raise _Unsupported
            items.append(_encode_string(key) + ": " + _text(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise _Unsupported


def dumps_indent2(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, built by one recursive
    join instead of json's pure-Python encoder.

    Only exact builtin types are written here: on anything else (a float
    subclass such as ``np.float64``, a tuple, a non-str key) and on a
    nesting too deep to recurse, the text is ``json.dumps``'s own, so none
    of json's coercions or errors is re-implemented.
    """
    try:
        return _text(obj, "\n")
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2)

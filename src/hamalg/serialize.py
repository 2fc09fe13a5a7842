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

The poly and hybrid forms are built from the element's arrays: one
lexicographic sort of the exponent rows, the order of ``sorted`` on
exponent tuples, and one ``tolist`` per array.  Floating-point values
are written by ``json``'s shortest round-trip repr, which reads back to
the same IEEE double, so serialized witnesses replay to the bit: an
element is its arrays, so it loads back equal.

``dumps_indent2`` writes a whole report: the text of
``json.dumps(report, indent=2)``, built faster.  A list whose items all
share one shape -- exact ints, finite exact floats, equal-length lists
of those, or records with one key sequence whose values have such
shapes, like a poly's ``terms`` and a hybrid's ``parts`` -- is written
by one ``%`` over a template cached per item shape and indent.  Any
other list is written item by item, and a value of any other type sends
the whole report to ``json.dumps``.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from operator import itemgetter

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


def _sorted_rows(el):
    """``el``'s exponent rows as lists and its coefficient stack, both in
    the order of ``sorted`` on exponent tuples."""
    order = np.lexsort(el.exps.T[::-1])   # np.lexsort's last key is the primary one
    return el.exps[order].tolist(), el.coeffs[order]


def element_to_json(el) -> dict:
    if getattr(el, "trials", None) is not None:
        raise ShapeError("cannot serialize a block of trials; serialize trial(t)")
    if isinstance(el, KroneckerElement):   # before its base class, OperatorElement
        return {"kind": "kronecker", "left_dim": el.left_dim, "right_dim": el.right_dim,
                "entries": _matrix_to_pairs(el.entries)}
    if isinstance(el, OperatorElement):
        return {"kind": "operator", "dim": el.dim, "entries": _matrix_to_pairs(el.entries)}
    if isinstance(el, PhaseSpacePoly):
        rows, coeffs = _sorted_rows(el)
        terms = [{"exponents": e, "coeff": c} for e, c in zip(rows, coeffs.tolist())]
        return {"kind": "poly", "num_pairs": el.num_pairs, "terms": terms}
    if isinstance(el, HybridElement):
        rows, coeffs = _sorted_rows(el)
        d = el.dim
        pairs = np.stack([coeffs.real, coeffs.imag], -1).reshape(len(rows), d * d, 2)
        parts = [{"exponents": e, "matrix": m} for e, m in zip(rows, pairs.tolist())]
        return {"kind": "hybrid", "dim": d, "num_pairs": el.num_pairs, "parts": parts}
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


def _shared_shape(values: list):
    """The shape every item of the non-empty list ``values`` has, and their
    leaves in order; None when the items do not share one.

    A shape is ``"d"`` (an exact int), ``"r"`` (a finite exact float),
    ``("list", n, item)`` (a list of n items of shape ``item``; None for
    n = 0) or ``("dict", keys, shapes)`` (a dict with the str keys
    ``keys``, in that order, whose values have the shapes ``shapes``).
    Each test runs over the whole list at C level.
    """
    types = set(map(type, values))
    if len(types) != 1:
        return None
    t = types.pop()
    if t is int:
        return "d", values
    if t is float:
        return ("r", values) if all(map(math.isfinite, values)) else None
    if t is list:
        lengths = set(map(len, values))
        if len(lengths) != 1:
            return None
        n = lengths.pop()
        if n == 0:
            return ("list", 0, None), []
        inner = _shared_shape(list(chain.from_iterable(values)))
        return None if inner is None else (("list", n, inner[0]), inner[1])
    if t is dict:
        key_orders = set(map(tuple, values))
        if len(key_orders) != 1:
            return None
        keys = key_orders.pop()
        if set(map(type, keys)) - {str}:
            return None
        shapes, runs = [], []
        for key in keys:
            column = _shared_shape(list(map(itemgetter(key), values)))
            if column is None:
                return None
            shapes.append(column[0])
            size = len(column[1]) // len(values)
            if size:   # each item's leaves of this key, as one tuple per item
                runs.append(zip(*[iter(column[1])] * size))
        leaves = list(chain.from_iterable(chain.from_iterable(zip(*runs))))
        return ("dict", keys, tuple(shapes)), leaves
    return None


def _join(items, newline: str, brackets: str = "[]") -> str:
    """Text items at the depth ``newline`` marks, bracketed as json does."""
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


@functools.lru_cache(maxsize=256)
def _template(shape, newline: str) -> str:
    """The ``%`` template of a value of ``shape`` written at the depth
    ``newline`` marks."""
    if type(shape) is str:
        return "%" + shape
    if shape[0] == "list":
        n, item = shape[1], shape[2]
        return "[]" if n == 0 else _join([_template(item, newline + "  ")] * n, newline)
    keys, shapes = shape[1], shape[2]
    if not keys:
        return "{}"
    inner = newline + "  "
    return _join([_encode_string(k).replace("%", "%%") + ": " + _template(s, inner)
                  for k, s in zip(keys, shapes)], newline, "{}")


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
        shared = _shared_shape(o)
        if shared is None:
            return _join([_text(v, inner) for v in o], newline)
        shape, leaves = shared
        return _join([_template(shape, inner)] * len(o), newline) % tuple(leaves)
    if t is dict:
        if not o:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in o.items():
            if type(key) is not str:
                raise _Unsupported
            items.append(_encode_string(key) + ": " + _text(value, inner))
        return _join(items, newline, "{}")
    raise _Unsupported


def dumps_indent2(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, built by one recursive
    join instead of json's pure-Python encoder, with one cached template
    per list whose items share a shape (see ``_shared_shape``).

    Only exact builtin types are written here: on anything else (a float
    subclass such as ``np.float64``, a tuple, a non-str key) and on a
    nesting too deep to recurse, the text is ``json.dumps``'s own, so none
    of json's coercions or errors is re-implemented.
    """
    try:
        return _text(obj, "\n")
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2)

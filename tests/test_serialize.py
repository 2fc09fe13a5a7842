import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamalg import (
    ComposedAlgebra,
    HybridElement,
    KroneckerElement,
    OperatorAlgebra,
    OperatorElement,
    PhaseSpaceAlgebra,
    PhaseSpacePoly,
    element_from_json,
    element_to_json,
)
from hamalg.cli import _load_schema
from hamalg.compose import random_hybrid_observable
from hamalg.serialize import _shared_shape, _template, dumps_indent2
from tests.helpers import PAULI_Y


def round_trip(el):
    return element_from_json(json.loads(json.dumps(element_to_json(el))))


class TestRoundTrips:
    def test_operator(self, rng):
        el = OperatorAlgebra(3, a=0.25).random_element(rng)
        back = round_trip(el)
        assert np.array_equal(back.entries, el.entries)

    def test_operator_non_hermitian(self):
        el = OperatorElement([[0, 1], [0, 0]])
        back = round_trip(el)
        assert np.array_equal(back.entries, el.entries)

    def test_poly(self, rng):
        el = PhaseSpaceAlgebra(2, max_random_degree=3).random_element(rng)
        assert round_trip(el).terms == el.terms

    def test_kronecker(self, rng):
        c = ComposedAlgebra(OperatorAlgebra(2, a=0.25), OperatorAlgebra(3, a=1.0),
                            a12=1.0)
        el = c.random_element(rng)
        back = round_trip(el)
        assert np.array_equal(back.entries, el.entries)
        assert (back.left_dim, back.right_dim) == (2, 3)

    def test_kronecker_trial_round_trips_bitwise(self, rng):
        c = ComposedAlgebra(OperatorAlgebra(2, a=0.25), OperatorAlgebra(3, a=0.25), a12=1.0)
        block = c.random_element(rng, block=(4, 1))[0]
        for t in range(4):
            single = block.trial(t)
            data = element_to_json(single)
            assert (data["kind"], data["left_dim"], data["right_dim"]) == ("kronecker", 2, 3)
            back = round_trip(single)
            assert type(back) is KroneckerElement
            assert back.entries.tobytes() == single.entries.tobytes()

    def test_hybrid(self):
        el = HybridElement(2, 1, {(1, 0): PAULI_Y, (0, 2): np.eye(2)})
        back = round_trip(el)
        assert set(back.terms) == set(el.terms)
        for e in el.terms:
            assert np.array_equal(back.terms[e], el.terms[e])

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            element_from_json({"kind": "mystery"})

    def test_blocks_are_refused(self, rng):
        from hamalg.brackets import random_hybrid_observable
        from hamalg.errors import ShapeError

        qq = ComposedAlgebra(OperatorAlgebra(2, a=0.25), OperatorAlgebra(2, a=0.25), a12=1.0)
        for block in (OperatorAlgebra(2, a=0.25).random_element(rng, block=(3, 1))[0],
                      qq.random_element(rng, block=(3, 1))[0],
                      random_hybrid_observable(rng, block=(3, 1))[0]):
            with pytest.raises(ShapeError, match="block"):
                element_to_json(block)
            single = block.trial(2)
            assert element_to_json(round_trip(single)) == element_to_json(single)


class TestWireFormat:
    def test_operator_entries_row_major_re_im_pairs(self):
        el = OperatorElement([[1, 2j], [-2j, 3]])
        doc = element_to_json(el)
        assert doc["kind"] == "operator"
        assert doc["dim"] == 2
        assert doc["entries"] == [[1.0, 0.0], [0.0, 2.0], [0.0, -2.0], [3.0, 0.0]]

    def test_poly_terms_sorted_and_listed(self):
        el = PhaseSpacePoly(1, {(0, 1): -2.0, (1, 0): 1.5})
        doc = element_to_json(el)
        assert doc == {
            "kind": "poly",
            "num_pairs": 1,
            "terms": [
                {"exponents": [0, 1], "coeff": -2.0},
                {"exponents": [1, 0], "coeff": 1.5},
            ],
        }

    def test_elements_validate_against_schema(self, rng):
        schema = _load_schema()
        element_schema = {"$ref": "#/$defs/element", "$defs": schema["$defs"]}
        els = [
            OperatorAlgebra(2, a=0.25).random_element(rng),
            PhaseSpaceAlgebra(1, 3).random_element(rng),
            HybridElement(2, 1, {(1, 0): PAULI_Y}),
            ComposedAlgebra(OperatorAlgebra(2, a=0.25), OperatorAlgebra(2, a=0.25),
                            a12=1.0).random_element(rng),
        ]
        for el in els:
            jsonschema.validate(json.loads(json.dumps(element_to_json(el))),
                                element_schema)


def sorted_dict_route(el) -> dict:
    """The wire form built through ``terms``, sorted as tuples, one part at a
    time: the route ``element_to_json`` must agree with."""
    def pairs(m):
        return np.stack([m.real, m.imag], axis=-1).reshape(-1, 2).tolist()

    if isinstance(el, KroneckerElement):
        return {"kind": "kronecker", "left_dim": el.left_dim, "right_dim": el.right_dim,
                "entries": pairs(el.entries)}
    if isinstance(el, OperatorElement):
        return {"kind": "operator", "dim": el.dim, "entries": pairs(el.entries)}
    if isinstance(el, PhaseSpacePoly):
        return {"kind": "poly", "num_pairs": el.num_pairs,
                "terms": [{"exponents": list(e), "coeff": float(c)}
                          for e, c in sorted(el.terms.items())]}
    return {"kind": "hybrid", "dim": el.dim, "num_pairs": el.num_pairs,
            "parts": [{"exponents": list(e), "matrix": pairs(m)}
                      for e, m in sorted(el.terms.items())]}


def assert_same_wire_form(el):
    got, want = element_to_json(el), sorted_dict_route(el)
    # json text tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert json.dumps(got) == json.dumps(want)
    assert dumps_indent2(got) == json.dumps(want, indent=2)


#: coefficients with the signs and magnitudes a sort or a stack could lose
COEFFS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, -1e16, 0.1])


@st.composite
def term_array_trials(draw):
    """A poly or hybrid element as ``trial(t)`` of a block whose rows are in
    no particular order, so that the trial may drop rows or all of them."""
    num_pairs = draw(st.integers(1, 2))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * (2 * num_pairs)),
                         max_size=6, unique=True))
    trials = draw(st.integers(1, 3))
    rows = np.array(exps, dtype=np.int64).reshape(len(exps), 2 * num_pairs)
    if draw(st.booleans()):
        coeffs = np.array(draw(st.lists(COEFFS, min_size=len(exps) * trials,
                                        max_size=len(exps) * trials)))
        block = PhaseSpacePoly._trusted(rows, coeffs.reshape(len(exps), trials))
    else:
        dim = draw(st.integers(1, 3))
        size = len(exps) * trials * dim * dim
        re, im = (np.array(draw(st.lists(COEFFS, min_size=size, max_size=size)))
                  for _ in range(2))
        c = (re + 1j * im).reshape(len(exps), trials, dim, dim)
        block = HybridElement._trusted(rows, c.transpose(0, 2, 3, 1))
    return block.trial(draw(st.integers(0, trials - 1)))


class TestWireFormsFromArrays:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_elements(self, seed):
        rng = np.random.default_rng(seed)
        els = [PhaseSpaceAlgebra(2, 3).random_element(rng),
               PhaseSpaceAlgebra(1, 4).random_element(rng),
               random_hybrid_observable(rng),
               random_hybrid_observable(rng, dim=3, num_pairs=2, degree=2),
               OperatorAlgebra(3, a=0.25).random_element(rng),
               ComposedAlgebra(OperatorAlgebra(2, a=0.25), OperatorAlgebra(3, a=1.0),
                               a12=1.0).random_element(rng)]
        for el in els:
            assert_same_wire_form(el)

    def test_block_trials(self, rng):
        for block in (PhaseSpaceAlgebra(2, 3).random_element(rng, block=(3, 1))[0],
                      random_hybrid_observable(rng, block=(3, 1))[0]):
            for t in range(3):
                assert_same_wire_form(block.trial(t))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(term_array_trials())
    def test_trials_that_drop_rows(self, el):
        assert_same_wire_form(el)

    def test_zero_term_elements(self):
        for el in (PhaseSpacePoly(2), HybridElement(2, 1), HybridElement(3, 2, {})):
            assert_same_wire_form(el)
            assert element_to_json(el)["terms" if isinstance(el, PhaseSpacePoly)
                                       else "parts"] == []

    def test_negative_zero_kept(self):
        m = np.array([[complex(-0.0, 1.0), complex(2.0, -0.0)],
                      [complex(-0.0, -0.0), complex(-1.0, 0.0)]])
        hybrid = HybridElement(2, 1, {(1, 0): m, (0, 1): -m})
        for el in (hybrid, OperatorElement(m)):
            assert_same_wire_form(el)
        part = element_to_json(hybrid)["parts"][1]   # (1, 0) sorts after (0, 1)
        assert part["exponents"] == [1, 0]
        assert math.copysign(1.0, part["matrix"][0][0]) == -1.0


#: floats json writes specially or that sit at repr's edges
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e22, -1e-7)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
STRINGS = st.one_of(st.text(), st.sampled_from(
    ["", "é ü 中 😀", "\"\\\n\t\r\b\f\x00\x1f\x7f", "\ud800", "</script>"]))
SCALARS = st.one_of(FLOATS, st.integers(), st.integers(min_value=-2 ** 80, max_value=2 ** 80),
                    st.booleans(), st.none(), STRINGS)
PAIRS = st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=4)
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, PAIRS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=20)


class TestReportText:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(DOCUMENTS)
    def test_equals_json_dumps(self, doc):
        assert dumps_indent2(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        {"a": np.float64(0.1)}, [[np.float64(1e16), 0.5]], {"x": np.float64(math.nan)},
        (1.0, 2.0), {"pair": (0.5, -0.5)}, {1: "one"}, {"a": {2.5: [1]}}, [{None: True}],
    ], ids=["float64", "float64_pair", "float64_nan", "tuple", "nested_tuple", "int_key",
            "float_key", "none_key"])
    def test_other_types_take_json_dumps(self, doc):
        assert dumps_indent2(doc) == json.dumps(doc, indent=2)

    def test_unencodable_values_raise_as_json_dumps(self):
        cyclic = []
        cyclic.append(cyclic)
        for doc, error in (({"a": object()}, TypeError), (cyclic, ValueError)):
            with pytest.raises(error) as want:
                json.dumps(doc, indent=2)
            with pytest.raises(error) as got:
                dumps_indent2(doc)
            assert str(got.value) == str(want.value)


FINITE = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e22, -1e-7]),
                   st.floats(allow_nan=False, allow_infinity=False))
INTS = st.one_of(st.integers(-5, 5), st.integers(min_value=-2 ** 80, max_value=2 ** 80))
#: one value that puts a list off every template's shape
STRAYS = st.sampled_from([True, False, np.float64(0.5), (1.0, 2.0), math.nan, math.inf,
                          -math.inf, None, "s", 1, 1.5, [], [1.0], [1.0, 2.0, 3.0]])
#: keys as records use them, a "%" that the template must escape, and others
KEYS = st.one_of(st.sampled_from(["exponents", "coeff", "matrix", "%d", "a%%r%", "é"]),
                 st.text(max_size=3))


def _value(draw, kind, n):
    if kind == "int":
        return draw(INTS)
    if kind == "float":
        return draw(FINITE)
    if kind == "ints":
        return draw(st.lists(INTS, min_size=n, max_size=n))
    if kind == "floats":
        return draw(st.lists(FINITE, min_size=n, max_size=n))
    return draw(st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=n, max_size=n))


@st.composite
def shaped_lists(draw):
    """A run of records, a list of [re, im] pairs or a list of ints, all of
    one shape, then perhaps knocked off it in one place: a stray value, a
    ragged length, a swapped key order or a missing key."""
    form = draw(st.sampled_from(["records", "pairs", "ints"]))
    n = draw(st.integers(1, 4))
    if form == "records":
        keys = draw(st.lists(KEYS, max_size=3, unique=True))
        kinds = [draw(st.sampled_from(["int", "float", "ints", "floats", "pairs"]))
                 for _ in keys]
        sizes = [draw(st.integers(0, 3)) for _ in keys]
        doc = [{k: _value(draw, kind, size) for k, kind, size in zip(keys, kinds, sizes)}
               for _ in range(n)]
    elif form == "pairs":
        doc = _value(draw, "pairs", n)
    else:
        doc = _value(draw, "ints", n)
    change = draw(st.sampled_from(["none", "stray", "ragged", "swap", "drop"]))
    i = draw(st.integers(0, n - 1))
    if change == "stray":
        stray = draw(STRAYS)
        if form == "records" and doc[i]:
            key = draw(st.sampled_from(list(doc[i])))
            value = doc[i][key]
            if type(value) is list and value and draw(st.booleans()):
                value[draw(st.integers(0, len(value) - 1))] = stray
            else:
                doc[i][key] = stray
        elif form == "pairs" and draw(st.booleans()):
            doc[i][draw(st.integers(0, 1))] = stray
        else:
            doc[i] = stray
    elif change == "ragged" and form != "ints":
        target = doc[i] if form == "pairs" else next(
            (v for v in doc[i].values() if type(v) is list), [])
        target.append(draw(FINITE) if form == "pairs" else target[0] if target else 0)
    elif change == "swap" and form == "records" and len(doc[i]) > 1:
        doc[i] = dict(reversed(list(doc[i].items())))
    elif change == "drop" and form == "records" and doc[i]:
        doc[i].pop(next(iter(doc[i])))
    return doc


class TestTemplatePath:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(shaped_lists(), st.sampled_from(["bare", "keyed", "nested"]))
    def test_equals_json_dumps(self, doc, wrap):
        doc = {"bare": doc, "keyed": {"parts": doc}, "nested": [doc, {"x": [doc]}]}[wrap]
        assert dumps_indent2(doc) == json.dumps(doc, indent=2)

    def test_witness_term_lists_take_it(self, rng):
        poly = element_to_json(PhaseSpaceAlgebra(2, 3).random_element(rng))
        hybrid = element_to_json(random_hybrid_observable(rng, dim=3))
        operator = element_to_json(OperatorAlgebra(3, a=0.25).random_element(rng))
        for run in (poly["terms"], hybrid["parts"], operator["entries"]):
            assert _shared_shape(run) is not None

    @pytest.mark.parametrize("run", [
        [{"coeff": 1.0, "exponents": [0, 1]}, {"exponents": [1, 0], "coeff": 2.0}],
        [{"exponents": [0, 1], "coeff": 1.0}, {"exponents": [1], "coeff": 2.0}],
        [{"exponents": [0, 1], "coeff": 1.0}, {"exponents": [1, 0], "coeff": math.nan}],
        [{"exponents": [0, True], "coeff": 1.0}], [[1.0, np.float64(2.0)]], [1, 2.0],
    ], ids=["key_order", "ragged", "nan", "bool", "float64", "mixed_leaves"])
    def test_off_shape_lists_fall_back(self, run):
        assert _shared_shape(run) is None
        assert dumps_indent2({"run": run}) == json.dumps({"run": run}, indent=2)

    def test_cache_does_not_grow_with_list_length(self):
        _template.cache_clear()
        sizes = []
        for n in range(1, 60):
            dumps_indent2(list(range(n)))
            dumps_indent2([[0.5, -0.5]] * n)
            dumps_indent2([{"exponents": [0, 1], "coeff": 0.5}] * n)
            sizes.append(_template.cache_info().currsize)
        assert set(sizes) == {sizes[0]}

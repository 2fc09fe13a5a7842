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
from hamalg.serialize import dumps_indent2
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

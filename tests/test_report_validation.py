"""Report validation: the compiled item checks in front of jsonschema's
``items`` keyword must never change a verdict, a message or a path.

Stock ``jsonschema`` is the oracle: every report kind is mutated at
sampled nodes and keys, and both validators must give the same errors."""

import copy
import json
import math

import jsonschema
import numpy as np
import pytest

from hamalg.cli import (
    _compile_check,
    _items_checked_validator,
    _load_schema,
    _report_validator,
    main,
)

#: one small report of each kind: argv after the output options are added
REPORTS = {
    "verify_operator": ("verify", "--dim", "2", "--trials", "2"),
    "verify_phase_space": ("verify", "--realization", "phase-space", "--degree", "2",
                           "--trials", "2"),
    "verify_composed": ("verify", "--composed", "--a1", "1", "--a2", "2", "--a12", "1.5",
                        "--trials", "1"),
    "verify_hybrid": ("verify", "--hybrid", "--trials", "2"),
    "brackets": ("brackets", "--kind", "anderson", "--trials", "1", "--budget", "2"),
    "uniqueness_scan": ("uniqueness", "scan", "--grid", "0.25:4:2"),
    "simulate": ("simulate",),
}

#: replacement values for a sampled node; DELETE removes it from its parent
DELETE = object()
MUTATIONS = (True, None, "x", -1, 1.5, math.nan, np.float64(0.5), [], {},
             [0.5, 0.5, 0.5], -0.5, DELETE)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = {}
    tmp = tmp_path_factory.mktemp("reports")
    for name, argv in REPORTS.items():
        json_path = str(tmp / f"{name}.json")
        if argv[0] == "uniqueness":
            argv += ("--out", str(tmp / f"{name}.csv"), "--json-out", json_path)
        elif argv[0] == "simulate":
            argv += ("--out", str(tmp / f"{name}.csv"), "--summary-out", json_path)
        else:
            argv += ("--out", json_path)
        assert main(list(argv)) == 0, name
        with open(json_path) as fh:
            doc = json.load(fh)
        if "checks" in doc:   # two checks hold every witness form, at a fraction of the cost
            doc["checks"] = doc["checks"][:2]
        out[name] = doc
    return out


def node_paths(doc, path=()):
    """The path of every node below the root, parents before children."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield path + (key,)
        yield from node_paths(value, path + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def error_tree(errors):
    """Every error with its message, paths, keyword and sub-errors, in order."""
    return [(e.message, list(e.absolute_path), list(e.absolute_schema_path), e.validator,
             error_tree(sorted(e.context, key=lambda c: list(c.schema_path))))
            for e in errors]


def assert_agree(doc, stock, checked):
    """The same error tree and the same best match from both validators."""
    want = list(stock.iter_errors(doc))
    got = list(checked.iter_errors(doc))
    assert error_tree(got) == error_tree(want)
    best_want = jsonschema.exceptions.best_match(want)
    best_got = jsonschema.exceptions.best_match(got)
    if best_want is None:
        assert best_got is None
    else:
        assert (best_got.message, list(best_got.absolute_path)) == \
            (best_want.message, list(best_want.absolute_path))


@pytest.mark.parametrize("name", REPORTS)
def test_mutated_reports_agree_with_stock(reports, name):
    schema = _load_schema()
    stock = jsonschema.Draft7Validator(schema)
    checked = _report_validator()(schema)
    doc = reports[name]
    assert stock.is_valid(doc)
    assert_agree(doc, stock, checked)
    paths = list(node_paths(doc))
    rng = np.random.default_rng(list(REPORTS).index(name))
    # witness entries make up most nodes, so most samples land in them
    for i in rng.choice(len(paths), size=min(len(paths), 8), replace=False):
        for value in MUTATIONS:
            assert_agree(mutated(doc, paths[i], value), stock, checked)


def test_write_report_rejects_as_stock(reports):
    from hamalg.cli import _write_report

    doc = mutated(reports["verify_operator"],
                  ("checks", 0, "worst_witness", 0, "entries", 1, 0), True)
    want = jsonschema.exceptions.best_match(
        jsonschema.Draft7Validator(_load_schema()).iter_errors(doc))
    with pytest.raises(jsonschema.ValidationError) as exc:
        _write_report(doc, None)
    assert (exc.value.message, list(exc.value.absolute_path)) == \
        (want.message, list(want.absolute_path))


class TestCompiledChecks:
    def test_witness_schemas_compile(self):
        schema = _load_schema()
        defs = schema["$defs"]
        branches = defs["element"]["oneOf"]
        poly = branches[1]["properties"]["terms"]["items"]
        part = branches[3]["properties"]["parts"]["items"]
        for sub in (defs["complex_pairs"], defs["complex_pairs"]["items"], poly, part,
                    poly["properties"]["exponents"], {"$ref": "#/$defs/complex_pairs"}):
            assert _compile_check(sub, schema) is not None

    def test_no_check_where_a_keyword_is_not_covered(self):
        schema = _load_schema()
        uncovered = {"enum", "const", "oneOf", "exclusiveMinimum"}

        def holds(node):
            if isinstance(node, dict):
                return (bool(uncovered & node.keys()) or isinstance(node.get("type"), list)
                        or any(holds(v) for v in node.values()))
            return isinstance(node, list) and any(holds(v) for v in node)

        nodes = [schema, *(get(schema, path) for path in node_paths(schema))]
        holding = [sub for sub in nodes if isinstance(sub, dict) and holds(sub)]
        assert len(holding) > 20
        for sub in holding:
            assert _compile_check(sub, schema) is None, sub

    @pytest.mark.parametrize("sub", [
        {"type": "string"}, {"minimum": 0, "minItems": 1}, {"$ref": "#/$defs/nowhere"},
        {"$ref": "#/$defs/complex_pairs", "type": "array"}, {"items": [{"type": "number"}]},
        {"type": "number", "title": "re"}, {"minimum": True},
    ])
    def test_other_schemas_give_no_check(self, sub):
        assert _compile_check(sub, _load_schema()) is None

    def test_cyclic_reference_gives_no_check(self):
        schema = {"$defs": {"a": {"type": "array", "items": {"$ref": "#/$defs/a"}}}}
        assert _compile_check({"$ref": "#/$defs/a"}, schema) is None

    @pytest.mark.parametrize("sub, value", [
        ({"type": "number"}, True), ({"type": "number"}, np.float64(0.5)),
        ({"type": "integer"}, 2.0), ({"type": "number", "minimum": 0}, math.nan),
        ({"type": "integer", "minimum": 0}, -1), ({"type": "array"}, (1, 2)),
        ({"type": "array", "minItems": 2, "maxItems": 2}, [1.0, 2.0, 3.0]),
        ({"required": ["a"]}, {"b": 1}), ({"properties": {"a": {"type": "integer"}}},
                                          {"a": 1.5}),
    ])
    def test_checks_are_one_sided(self, sub, value):
        assert _compile_check(sub, {})(value) is False

    def test_uncovered_keyword_falls_back_to_stock(self, reports):
        schema = copy.deepcopy(_load_schema())
        schema["$defs"]["complex_pairs"]["items"]["uniqueItems"] = True
        assert _compile_check(schema["$defs"]["complex_pairs"], schema) is None
        doc = mutated(reports["verify_operator"],
                      ("checks", 0, "worst_witness", 0, "entries", 0), [0.25, 0.25])
        jsonschema.validate(doc, _load_schema(), cls=_report_validator())
        stock = jsonschema.Draft7Validator(schema)
        assert not stock.is_valid(doc)
        # the copy's own class, and the shipped schema's class, whose checks
        # are keyed to other objects, both reject the copy's report as stock does
        for cls in (_items_checked_validator(schema), _report_validator()):
            assert_agree(doc, stock, cls(schema))

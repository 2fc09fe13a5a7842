"""Report validation: the compiled checks in front of jsonschema's
``oneOf`` keyword must never change a verdict, a message or a path.

Stock ``jsonschema`` is the oracle: every report kind is mutated at
sampled nodes and keys and at every ``oneOf`` discriminator, and both
validators must give the same errors."""

import copy
import json
import math

import jsonschema
import numpy as np
import pytest

from hamalg.cli import (
    _compile_check,
    _load_schema,
    _one_of_checked_validator,
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


#: the keys that decide which ``oneOf`` branch a node falls in, or that
#: carry a keyword only the compiled ``oneOf`` checks cover
DISCRIMINATORS = {"report_kind", "kind", "identity", "tolerance", "witness",
                  "pass_set_is_diagonal"}
#: every string a ``const`` or ``enum`` of the schema names, and zero
SCHEMA_STRINGS = ("verify", "brackets", "uniqueness", "simulate", "operator", "poly",
                  "kronecker", "hybrid", "jacobi", "anderson", 0)


@pytest.mark.parametrize("name", REPORTS)
def test_mutated_discriminators_agree_with_stock(reports, name):
    schema = _load_schema()
    stock = jsonschema.Draft7Validator(schema)
    checked = _report_validator()(schema)
    doc = reports[name]
    paths = [path for path in node_paths(doc) if path[-1] in DISCRIMINATORS]
    assert any(path == ("report_kind",) for path in paths)
    for path in paths:
        for value in SCHEMA_STRINGS + MUTATIONS:
            assert_agree(mutated(doc, path, value), stock, checked)


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


def test_restriction_product_sigma_is_rejected(reports):
    # the restriction fit measures the bracket alone
    from hamalg.cli import _write_report

    stock = jsonschema.Draft7Validator(_load_schema())
    for component in ("left", "right"):
        doc = mutated(reports["uniqueness_scan"], ("verdicts", 0, component, "product"),
                      "sigma")
        assert not stock.is_valid(doc)
        with pytest.raises(jsonschema.ValidationError, match="'alpha' was expected") as exc:
            _write_report(doc, None)
        assert list(exc.value.absolute_path) == ["verdicts", 0, component, "product"]


def test_write_report_writes_json_dumps_text(reports, tmp_path):
    from hamalg.cli import _write_report

    for name, doc in reports.items():
        path = tmp_path / f"{name}.json"
        _write_report(doc, str(path))
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode(), name


#: a tagged union keyed by ``kind``
TAGGED = {"oneOf": [
    {"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
    {"properties": {"kind": {"const": "b"}, "n": {"type": "integer"}},
     "required": ["kind", "n"]},
]}


class TestCompiledChecks:
    def test_witness_schemas_compile(self):
        schema = _load_schema()
        defs = schema["$defs"]
        branches = defs["element"]["oneOf"]
        poly = branches[1]["properties"]["terms"]["items"]
        part = branches[3]["properties"]["parts"]["items"]
        for sub in (defs["complex_pairs"], defs["complex_pairs"]["items"], poly, part,
                    poly["properties"]["exponents"], {"$ref": "#/$defs/complex_pairs"}):
            assert _compile_check(sub, schema, ()) is not None

    def test_shipped_schema_compiles_whole(self, reports):
        """A schema edit that adds a keyword no check covers fails here,
        instead of quietly sending every report through stock jsonschema."""
        schema = _load_schema()
        check = _compile_check({"oneOf": schema["oneOf"]}, schema, ())
        assert check is not None
        for doc in reports.values():
            assert check(doc) is True

    @pytest.mark.parametrize("sub", [
        {"type": "string", "maxLength": 3}, {"minimum": 0, "minItems": 1},
        {"$ref": "#/$defs/nowhere"},
        {"$ref": "#/$defs/complex_pairs", "type": "array"}, {"items": [{"type": "number"}]},
        {"type": "number", "title": "re"}, {"minimum": True},
        # a oneOf that is no tagged union
        {"oneOf": [{"required": ["a"]}, {"required": ["b"]}]},
        {"oneOf": [{"type": "integer"}, {"type": "number"}]},
    ])
    def test_other_schemas_give_no_check(self, sub):
        assert _compile_check(sub, _load_schema(), ()) is None

    def test_cyclic_reference_gives_no_check(self):
        schema = {"$defs": {"a": {"type": "array", "items": {"$ref": "#/$defs/a"}}}}
        assert _compile_check({"$ref": "#/$defs/a"}, schema, ()) is None

    @pytest.mark.parametrize("sub, value", [
        ({"type": "number"}, True), ({"type": "number"}, np.float64(0.5)),
        ({"type": "integer"}, 2.0), ({"type": "number", "minimum": 0}, math.nan),
        ({"type": "integer", "minimum": 0}, -1), ({"type": "array"}, (1, 2)),
        ({"type": "array", "minItems": 2, "maxItems": 2}, [1.0, 2.0, 3.0]),
        ({"required": ["a"]}, {"b": 1}), ({"properties": {"a": {"type": "integer"}}},
                                          {"a": 1.5}),
        ({"const": "1"}, 1), ({"const": "a"}, "b"), ({"enum": ["a", "b"]}, "c"),
        ({"enum": ["a"]}, ["a"]), ({"type": "number", "exclusiveMinimum": 0}, 0),
        ({"type": "number", "exclusiveMinimum": 0}, math.nan),
        ({"type": ["number", "null"]}, True), ({"type": ["boolean", "null"]}, 0),
        ({"type": ["integer", "null"]}, 2.0),
    ])
    def test_checks_are_one_sided(self, sub, value):
        assert _compile_check(sub, {}, ())(value) is False

    def test_tagged_union_passes_only_stock_valid_instances(self):
        check = _compile_check(TAGGED, {}, ())
        stock = jsonschema.Draft7Validator(TAGGED)
        for value in ({"kind": "a"}, {"kind": "a", "n": 1.5}, {"kind": "b", "n": 1}):
            assert check(value) is True and stock.is_valid(value)
        for value in ({"kind": "b"}, {"kind": "b", "n": 1.5}):
            assert check(value) is False and not stock.is_valid(value)

    @pytest.mark.parametrize("value", [
        ["a"], "a", None, {}, {"n": 1},
        {"kind": ["a"]}, {"kind": 1}, {"kind": None}, {"kind": "c"}, {"kind": "A"},
    ])
    def test_tagged_union_without_a_known_string_tag_fails(self, value):
        assert _compile_check(TAGGED, {}, ())(value) is False

    @pytest.mark.parametrize("branches, defs", [
        # two branches share a tag
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
          {"properties": {"kind": {"const": "a"}, "n": {"type": "integer"}},
           "required": ["kind", "n"]}], {}),
        # the branches are keyed on different properties
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
          {"properties": {"type": {"const": "b"}}, "required": ["type"]}], {}),
        # a tag is pinned but not required, or required but not pinned
        ([{"properties": {"kind": {"const": "a"}}},
          {"properties": {"kind": {"const": "b"}}, "required": ["kind"]}], {}),
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
          {"properties": {"kind": {"enum": ["b"]}}, "required": ["kind"]}], {}),
        # a tag property is a $ref, whose siblings draft-07 ignores
        ([{"properties": {"kind": {"$ref": "#/$defs/a"}}, "required": ["kind"]},
          {"properties": {"kind": {"const": "b"}}, "required": ["kind"]}],
         {"a": {"const": "a"}}),
        ([{"properties": {"kind": {"$ref": "#/$defs/a", "const": "a"}}, "required": ["kind"]},
          {"properties": {"kind": {"const": "b"}}, "required": ["kind"]}],
         {"a": {"const": "b"}}),
        # a branch that is not an object schema, or a $ref that does not resolve
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]}, True], {}),
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
          {"$ref": "#/$defs/nowhere"}], {}),
        ([], {}),
    ])
    def test_other_one_ofs_give_no_check(self, branches, defs):
        assert _compile_check({"oneOf": branches}, {"$defs": defs}, ()) is None

    def test_tagged_union_follows_branch_references(self):
        root = {"$defs": {"a": TAGGED["oneOf"][0], "b": TAGGED["oneOf"][1]}}
        check = _compile_check({"oneOf": [{"$ref": "#/$defs/a"}, {"$ref": "#/$defs/b"}]},
                               root, ())
        assert check({"kind": "b", "n": 1}) is True
        assert check({"kind": "b", "n": "1"}) is False

    def test_uncovered_keyword_falls_back_to_stock(self, reports):
        schema = copy.deepcopy(_load_schema())
        schema["$defs"]["complex_pairs"]["items"]["uniqueItems"] = True
        assert _compile_check(schema["$defs"]["complex_pairs"], schema, ()) is None
        doc = mutated(reports["verify_operator"],
                      ("checks", 0, "worst_witness", 0, "entries", 0), [0.25, 0.25])
        jsonschema.validate(doc, _load_schema(), cls=_report_validator())
        stock = jsonschema.Draft7Validator(schema)
        assert not stock.is_valid(doc)
        # the copy's own class, and the shipped schema's class, whose checks
        # are keyed to other objects, both reject the copy's report as stock does
        for cls in (_one_of_checked_validator(schema), _report_validator()):
            assert_agree(doc, stock, cls(schema))

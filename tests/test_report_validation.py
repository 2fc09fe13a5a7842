"""Report validation: the compiled check in front of stock jsonschema
must never change a verdict, a message or a path.

Stock Draft-7 ``jsonschema`` is the oracle: every report kind is mutated
at sampled nodes and keys and at every ``oneOf`` discriminator.  The
check may pass only what stock passes, and ``_write_report`` must refuse
exactly what stock refuses, with stock's best match."""

import copy
import json
import math

import jsonschema
import numpy as np
import pytest

from hamalg import cli
from hamalg.cli import _compile_check, _load_schema, _report_check, _write_report, main

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
    # a single triple's report has no pass set, and a clean bracket's searches no witness
    "uniqueness_single": ("uniqueness", "--a1", "1", "--a2", "1", "--a12", "1"),
    "brackets_hybrid_paper": ("brackets", "--kind", "hybrid_paper", "--trials", "1",
                              "--budget", "2"),
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
        if argv[:2] == ("uniqueness", "scan"):
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


def assert_agree(doc, stock, path):
    """The check passes only what stock passes, and ``_write_report``
    refuses exactly what stock refuses, with stock's best match; what it
    accepts, it writes as ``json.dumps`` does."""
    want = jsonschema.exceptions.best_match(stock.iter_errors(doc))
    if _report_check()(doc):
        assert want is None
    if want is None:
        _write_report(doc, str(path))
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"
        return
    with pytest.raises(jsonschema.ValidationError) as exc:
        _write_report(doc, str(path))
    assert (exc.value.message, list(exc.value.absolute_path)) == \
        (want.message, list(want.absolute_path))


@pytest.mark.parametrize("name", REPORTS)
def test_mutated_reports_agree_with_stock(reports, name, tmp_path):
    stock = jsonschema.Draft7Validator(_load_schema())
    doc = reports[name]
    assert stock.is_valid(doc)
    assert_agree(doc, stock, tmp_path / "r.json")
    paths = list(node_paths(doc))
    rng = np.random.default_rng(list(REPORTS).index(name))
    # witness entries make up most nodes, so most samples land in them
    for i in rng.choice(len(paths), size=min(len(paths), 8), replace=False):
        for value in MUTATIONS:
            assert_agree(mutated(doc, paths[i], value), stock, tmp_path / "r.json")


#: the keys that decide which ``oneOf`` branch a node falls in, or that
#: carry a keyword only the compiled ``oneOf`` checks cover
DISCRIMINATORS = {"report_kind", "kind", "identity", "tolerance", "witness",
                  "pass_set_is_diagonal"}
#: every string a ``const`` or ``enum`` of the schema names, and zero
SCHEMA_STRINGS = ("verify", "brackets", "uniqueness", "simulate", "operator", "poly",
                  "kronecker", "hybrid", "jacobi", "anderson", 0)


@pytest.mark.parametrize("name", REPORTS)
def test_mutated_discriminators_agree_with_stock(reports, name, tmp_path):
    stock = jsonschema.Draft7Validator(_load_schema())
    doc = reports[name]
    paths = [path for path in node_paths(doc) if path[-1] in DISCRIMINATORS]
    assert any(path == ("report_kind",) for path in paths)
    for path in paths:
        for value in SCHEMA_STRINGS + MUTATIONS:
            assert_agree(mutated(doc, path, value), stock, tmp_path / "r.json")


def test_shipped_schema_is_valid_draft7():
    """A valid report never reaches jsonschema's metaschema check, so it
    runs here."""
    jsonschema.Draft7Validator.check_schema(_load_schema())


def test_write_report_rejects_as_stock(reports):
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
    stock = jsonschema.Draft7Validator(_load_schema())
    for component in ("left", "right"):
        doc = mutated(reports["uniqueness_scan"], ("verdicts", 0, component, "product"),
                      "sigma")
        assert not stock.is_valid(doc)
        with pytest.raises(jsonschema.ValidationError, match="'alpha' was expected") as exc:
            _write_report(doc, None)
        assert list(exc.value.absolute_path) == ["verdicts", 0, component, "product"]


def test_write_report_writes_json_dumps_text(reports, tmp_path):
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
            assert _compile_check(sub, schema) is not None

    def test_shipped_schema_compiles_whole(self, reports):
        """A schema edit that adds a keyword no check covers fails here,
        instead of quietly sending every report through stock jsonschema."""
        for doc in reports.values():
            assert _report_check()(doc) is True

    @pytest.mark.parametrize("sub, construct", [
        ({"type": "string", "maxLength": 3}, "'maxLength'"),
        ({"minimum": 0, "minItems": 1}, "one kind of instance"),
        ({"type": "string", "minimum": 0}, "one kind of instance"),
        ({"$ref": "#/$defs/nowhere"}, "nowhere"),
        ({"$ref": "#/$defs/complex_pairs", "type": "array"}, r"lone \$ref"),
        ({"items": [{"type": "number"}]}, r"object schemas, not \["),
        ({"type": "number", "title": "re"}, "'title'"),
        # a oneOf that is no tagged union
        ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]}, "tagged union"),
        ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, "tagged union"),
    ])
    def test_other_schemas_are_refused(self, sub, construct):
        with pytest.raises(ValueError, match=construct):
            _compile_check(sub, _load_schema())

    def test_cyclic_reference_is_refused(self):
        schema = {"$defs": {"a": {"type": "array", "items": {"$ref": "#/$defs/a"}}}}
        with pytest.raises(RecursionError):
            _compile_check({"$ref": "#/$defs/a"}, schema)

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
        assert _compile_check(sub, {})(value) is False

    def test_tagged_union_passes_only_stock_valid_instances(self):
        check = _compile_check(TAGGED, {})
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
        assert _compile_check(TAGGED, {})(value) is False

    @pytest.mark.parametrize("branches, defs, construct", [
        # two branches share a tag
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
          {"properties": {"kind": {"const": "a"}, "n": {"type": "integer"}},
           "required": ["kind", "n"]}], {}, "tagged union"),
        # the branches are keyed on different properties
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
          {"properties": {"type": {"const": "b"}}, "required": ["type"]}], {}, "tagged union"),
        # a tag is pinned but not required, or required but not pinned
        ([{"properties": {"kind": {"const": "a"}}},
          {"properties": {"kind": {"const": "b"}}, "required": ["kind"]}], {}, "tagged union"),
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
          {"properties": {"kind": {"enum": ["b"]}}, "required": ["kind"]}], {}, "tagged union"),
        # a tag property is a $ref, whose siblings draft-07 ignores
        ([{"properties": {"kind": {"$ref": "#/$defs/a"}}, "required": ["kind"]},
          {"properties": {"kind": {"const": "b"}}, "required": ["kind"]}],
         {"a": {"const": "a"}}, "tagged union"),
        ([{"properties": {"kind": {"$ref": "#/$defs/a", "const": "a"}}, "required": ["kind"]},
          {"properties": {"kind": {"const": "b"}}, "required": ["kind"]}],
         {"a": {"const": "b"}}, r"lone \$ref"),
        # a branch that is not an object schema, or a $ref that does not resolve
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]}, True], {},
         "object schemas, not True"),
        ([{"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
          {"$ref": "#/$defs/nowhere"}], {}, "nowhere"),
    ])
    def test_other_one_ofs_are_refused(self, branches, defs, construct):
        with pytest.raises(ValueError, match=construct):
            _compile_check({"oneOf": branches}, {"$defs": defs})

    def test_tagged_union_follows_branch_references(self):
        root = {"$defs": {"a": TAGGED["oneOf"][0], "b": TAGGED["oneOf"][1]}}
        check = _compile_check({"oneOf": [{"$ref": "#/$defs/a"}, {"$ref": "#/$defs/b"}]},
                               root)
        assert check({"kind": "b", "n": 1}) is True
        assert check({"kind": "b", "n": "1"}) is False

    def test_uncovered_keyword_is_refused(self, monkeypatch):
        schema = copy.deepcopy(_load_schema())
        schema["$defs"]["complex_pairs"]["items"]["uniqueItems"] = True
        monkeypatch.setattr(cli, "_load_schema", lambda: schema)
        with pytest.raises(ValueError, match="'uniqueItems'"):
            _report_check.__wrapped__()

    def test_uncovered_root_key_is_refused(self, monkeypatch):
        """The check reads the root's ``oneOf`` alone, so a constraint beside
        it would pass unread."""
        schema = dict(_load_schema(), required=["x"])
        monkeypatch.setattr(cli, "_load_schema", lambda: schema)
        with pytest.raises(ValueError, match="'required'"):
            _report_check.__wrapped__()

"""Command-line entry point.

Subcommands:

* ``verify``     -- run the identity suite on a chosen algebra
* ``brackets``   -- measure mixed-bracket defects and search for witnesses
* ``simulate``   -- evolve the coupled measurement model, CSV + summary
* ``uniqueness`` -- restriction factors for one constant triple, or a scan

``uniqueness [scan]`` is one command: without ``scan`` it checks the
triple given by ``--a1 --a2 --a12``, with it the ``--grid`` scan.

Exit status: 0 all checks passed / expected pattern confirmed, 1 a check
or pattern failed, 2 usage error.  Seeds come from ``--seed``, then the
``HAMALG_SEED`` environment variable, then 0.  ``--config FILE`` holds a
JSON object keyed by option name; its options are written as flags in
front of the command line's and the command line is parsed again, so
config values pass the same type and choice checks as flags, and
explicit flags win.  Every default is declared on its option.
All reports validate against the schema shipped at
``hamalg/schemas/report.schema.json``, with one ``jsonschema.validate``
call each.  Only the root ``oneOf``, a tagged union keyed by
``report_kind``, is hooked: it first runs the compiled check of the
branch the report's tag names, which covers the whole report, and
jsonschema's own keyword runs only where that check does not pass, so
every rejection and its message still come from jsonschema.  A valid
report's text is built by
``serialize.dumps_indent2``, equal to ``json.dumps(report, indent=2)``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from importlib import resources

import jsonschema
import numpy as np

from .algebra import OperatorAlgebra, PhaseSpaceAlgebra
from .brackets import (
    DESIDERATA,
    EXPECTED_CLEAN,
    MixedBracketKind,
    find_violation_witness,
    measure_defects,
)
from .compose import ComposedAlgebra
from .elements import product_monomials
from .errors import HamalgError
from .identities import run_axiom_suite
from .kernels import plan_scope
from .measurement import BASIS, TRACKED, MeasurementConfig, Regime, back_reaction_gap, evolve
from .reference import replay_defect
from .serialize import dumps_indent2
from .uniqueness import scan_constants, uniqueness_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Bound on C(2n + 4d, 4d), the monomials of the identity suite's deepest
#: product on random polynomials of degree d in 2n variables (Jordan's
#: sigma(sigma(f, f), sigma(g, f)), degree 4d).  ``verify --hybrid --trials 1``
#: at pairs 6, degree 2 (125,970) takes 24 s and 212 MB on one x86-64 core.
MAX_PRODUCT_MONOMIALS = 200_000


class UsageError(Exception):
    pass


@functools.cache
def _load_schema() -> dict:
    with resources.files("hamalg.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# report validation: a compiled check of the whole report behind the root ``oneOf``
# ---------------------------------------------------------------------------

#: the Python types a compiled check accepts for each draft-07 type name
_TYPES = {"number": (int, float), "integer": (int,), "string": (str,),
          "boolean": (bool,), "null": (type(None),), "array": (list,), "object": (dict,)}
#: the keywords a compiled check covers that constrain one kind of instance
_KEYWORD_KINDS = {"minimum": "number", "exclusiveMinimum": "number", "minItems": "array",
                  "maxItems": "array", "items": "array", "required": "object",
                  "properties": "object"}
#: the keywords a compiled check covers that constrain any kind of instance
_ANY_KIND = {"type", "const", "enum", "oneOf"}


def _deref(schema: dict, root: dict, refs: tuple):
    """The target of ``schema``'s lone ``$ref`` to ``#/$defs/<name>`` of
    ``root`` and the references followed to it, or None."""
    ref = schema["$ref"]
    prefix = "#/$defs/"
    name = ref[len(prefix):] if type(ref) is str and ref.startswith(prefix) else None
    defs = root.get("$defs", {})
    # draft-07 ignores the siblings of $ref; "~" and "%" would need unescaping
    if (len(schema) > 1 or name not in defs or any(c in name for c in "/~%")
            or ref in refs):
        return None
    return defs[name], refs + (ref,)


def _both(first, second):
    return lambda x: first(x) and second(x)


def _compile_check(schema, root: dict, refs: tuple = ()):
    """A predicate for instances of ``schema`` (draft-07), or None.

    The predicate is one-sided: it returns True only where stock
    validation of the instance against ``schema`` yields no error, and
    False where it may yield one.  ``number`` holds for ``int`` and
    ``float`` exactly, ``integer`` for ``int``, ``array`` for ``list`` and
    ``object`` for ``dict``; ``const`` and ``enum`` hold only for strings.
    So bools as numbers, numpy scalars, ``2.0`` as an integer and NaN
    against a bound all give False.  A ``oneOf`` compiles only as a tagged
    union (see ``_compile_tagged_union``): its check runs the one branch
    that the instance's string tag names.  None means that ``schema`` uses
    something else: a keyword outside ``type``, ``const``, ``enum``,
    ``oneOf``, ``minimum``, ``exclusiveMinimum``, ``minItems``,
    ``maxItems``, ``items``, ``required``, ``properties`` and a lone
    ``$ref`` to ``#/$defs/<name>`` of ``root``; a ``const`` or ``enum`` of
    anything but strings; keywords for two kinds of instance; a ``oneOf``
    that is no tagged union; or a cyclic reference.
    """
    if type(schema) is not dict:
        return None
    if "$ref" in schema:
        target = _deref(schema, root, refs)
        return None if target is None else _compile_check(target[0], root, target[1])
    if any(key not in _KEYWORD_KINDS and key not in _ANY_KIND for key in schema):
        return None
    kinds = {_KEYWORD_KINDS[key] for key in schema if key in _KEYWORD_KINDS}
    if len(kinds) > 1:
        return None
    names = schema.get("type", list(_TYPES))
    names = [names] if type(names) is str else names
    if type(names) is not list or any(type(n) is not str or n not in _TYPES for n in names):
        return None
    allowed = {t for n in names for t in _TYPES[n]}
    kind = kinds.pop() if kinds else None
    if kind:
        allowed &= set(_TYPES[kind])
        if not allowed:   # the type excludes every instance the keywords constrain
            return None
    checks = []
    if kind or "type" in schema:
        checks.append(_kind_check(kind, schema, frozenset(allowed), root, refs))
    if "const" in schema:
        const = schema["const"]
        if type(const) is not str:
            return None
        checks.append(lambda x: type(x) is str and x == const)
    if "enum" in schema:
        enum = schema["enum"]
        if type(enum) is not list or any(type(e) is not str for e in enum):
            return None
        members = frozenset(enum)
        checks.append(lambda x: type(x) is str and x in members)
    if "oneOf" in schema:
        checks.append(_compile_tagged_union(schema["oneOf"], root, refs))
    if None in checks:
        return None
    return functools.reduce(_both, checks) if checks else lambda x: True


def _kind_check(kind, schema: dict, allowed: frozenset, root: dict, refs: tuple):
    """The check of ``type`` and of the keywords of ``kind``, or None."""
    if kind == "number":
        low = schema.get("minimum", -math.inf)
        above = schema.get("exclusiveMinimum", -math.inf)
        if type(low) not in (int, float) or type(above) not in (int, float):
            return None
        return lambda x: type(x) in allowed and x >= low and x > above
    if kind == "array":
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if type(low) not in (int, float) or type(high) not in (int, float):
            return None
        if "items" not in schema:
            return lambda x: type(x) is list and low <= len(x) <= high
        item = _compile_check(schema["items"], root, refs)
        if item is None:
            return None
        return lambda x: type(x) is list and low <= len(x) <= high and all(map(item, x))
    if kind == "object":
        required = schema.get("required", [])
        properties = schema.get("properties", {})
        if (type(required) is not list or any(type(key) is not str for key in required)
                or type(properties) is not dict):
            return None
        checks = tuple((key, _compile_check(sub, root, refs))
                       for key, sub in properties.items())
        if any(check is None for _, check in checks):
            return None

        def check_object(x) -> bool:
            if type(x) is not dict:
                return False
            for key in required:
                if key not in x:
                    return False
            for key, check in checks:
                if key in x and not check(x[key]):
                    return False
            return True
        return check_object
    return lambda x: type(x) in allowed


def _compile_tagged_union(branches, root: dict, refs: tuple = ()):
    """The check of a ``oneOf`` over ``branches`` that is a tagged union,
    or None.

    A tagged union's branches all compile, and, each after its lone
    ``$ref`` is followed, all require one common key whose property is a
    string ``const`` (the tag); no two share a tag.  The check reads the
    instance's tag, only from a dict and only as a string, and runs that
    one branch's check.  It is one-sided, because an instance carrying one
    branch's tag fails every other branch's ``const``.
    """
    if type(branches) is not list or not branches:
        return None
    checks = [_compile_check(branch, root, refs) for branch in branches]
    if None in checks:
        return None
    tags = [_tags(branch, root, refs) for branch in branches]
    key = next((k for k in tags[0] if all(k in t for t in tags)), None)
    by_tag = dict(zip((t.get(key) for t in tags), checks))
    if key is None or len(by_tag) < len(branches):
        return None

    def check_tagged(x) -> bool:
        tag = x.get(key) if type(x) is dict else None
        return type(tag) is str and tag in by_tag and by_tag[tag](x)
    return check_tagged


def _tags(schema: dict, root: dict, refs: tuple) -> dict:
    """The keys that ``schema`` requires and pins with a ``const``, each
    with its ``const``.  ``schema`` compiled, so each ``const`` is a string."""
    if "$ref" in schema:
        schema = _deref(schema, root, refs)[0]
    properties = schema.get("properties", {})
    return {key: properties[key]["const"] for key in schema.get("required", [])
            if "const" in properties.get(key, {})}


def _one_of_checked_validator(schema: dict) -> type:
    """A draft-07 validator class for ``schema`` whose ``oneOf`` keyword, on
    the root's own branch list, first runs the compiled check of that
    tagged union on the instance.

    Where the check passes, the keyword yields no error, as the stock
    keyword would.  Where it fails, on any other ``oneOf``, or when no
    check compiled, the stock keyword runs unchanged, so every rejection,
    its message, its path and ``best_match`` come from jsonschema.  The
    root's branch list is compared by identity, so the class falls back to
    the stock keyword on any schema but ``schema``.
    """
    stock = jsonschema.Draft7Validator.VALIDATORS["oneOf"]
    root = schema.get("oneOf")
    check = _compile_tagged_union(root, schema)

    def one_of(validator, branches, instance, parent_schema):
        if check is not None and branches is root and check(instance):
            return
        yield from stock(validator, branches, instance, parent_schema)

    return jsonschema.validators.extend(jsonschema.Draft7Validator, {"oneOf": one_of})


@functools.cache
def _report_validator() -> type:
    return _one_of_checked_validator(_load_schema())


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _config_argv(args: argparse.Namespace, argv: list) -> list:
    """argv with the config file's options written as flags right after
    the subcommand, so that explicit flags, which come later, win."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {args.config}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    flags = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        # the namespace holds every option of the subcommand; these are not options
        if dest in ("command", "func", "mode", "config") or not hasattr(args, dest):
            raise UsageError(f"config file option {key!r} unknown for this subcommand")
        option = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest), bool):   # a store_true flag
            if not isinstance(value, bool):
                raise UsageError(f"config file flag {key!r} must be true or false")
            flags += [option] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            flags.append(f"{option}={value}")
        else:
            raise UsageError(f"config file option {key!r} must be a string or a number")
    # argv[0] is the subcommand: the top-level parser has no other options
    return argv[:1] + flags + argv[1:]


def _write_text(text: str, path: str | None, what: str) -> None:
    """Write text to path, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {what} to {path}: {exc}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_report(report: dict, out_path: str | None) -> None:
    """Validate against the shipped schema, then write or print."""
    jsonschema.validate(report, _load_schema(), cls=_report_validator())
    _write_text(dumps_indent2(report) + "\n", out_path, "report")


def _seed(text: str) -> int:
    """``--seed``'s type: an int >= 0, as ``np.random.default_rng`` takes;
    argparse turns a refusal into a usage error naming ``--seed``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(value, what: str):
    if value is None or not 0 < value < math.inf:
        raise UsageError(f"{what} must be positive and finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_polynomial_size(pairs: int, degree: int) -> None:
    """Refuse random polynomials whose nested products would be too large
    (see MAX_PRODUCT_MONOMIALS)."""
    if degree < 0:
        raise UsageError(f"--degree must be >= 0, got {degree}")
    bound = product_monomials(2 * pairs, degree)
    if bound > MAX_PRODUCT_MONOMIALS:
        raise UsageError(f"--pairs {pairs} --degree {degree}: products of degree {4 * degree} "
                         f"reach C({2 * pairs + 4 * degree}, {4 * degree}) = {bound:,} "
                         f"monomials, past the limit of {MAX_PRODUCT_MONOMIALS:,}")


#: the options each ``verify`` algebra reads, of the algebra options
_ALGEBRA_READS = {
    "composed": {"a1", "a2", "a12", "dim1", "dim2"},
    "hybrid": {"dim", "pairs", "degree", "a1", "a12"},
    "operator": {"realization", "dim", "hbar"},
    "phase-space": {"realization", "pairs", "degree"},
}


@functools.cache
def _defaults(command: str) -> argparse.Namespace:
    # an explicit seed, so that a bad HAMALG_SEED fails only where it is read
    return build_parser().parse_args([command, "--seed", "0"])


def _refuse_unread_options(args, algebra: str) -> None:
    """Usage error naming each option, set away from its default, that the
    chosen algebra would silently ignore."""
    unread = set().union(*_ALGEBRA_READS.values()) - _ALGEBRA_READS[algebra]
    named = [f"--{name}" for name, default in vars(_defaults("verify")).items()
             if name in unread and getattr(args, name) != default]
    if named:
        raise UsageError(f"{', '.join(named)} not used by the {algebra} algebra")


def _refuse_vacuous(args, algebra: str) -> None:
    """Usage error on a realization whose bracket is identically zero: every
    bracket identity would pass on it without testing anything."""
    reason = None
    if algebra == "operator" and args.dim == 1:
        flags, reason = "--dim 1", "1x1 matrices commute"
    elif algebra == "composed" and args.dim1 == args.dim2 == 1:
        flags, reason = "--dim1 1 --dim2 1", "1x1 factors commute"
    elif algebra == "phase-space" and args.degree == 0:
        flags, reason = "--degree 0", "constants have zero Poisson bracket"
    elif algebra == "hybrid" and args.dim == 1:
        flags, reason = "--hybrid --dim 1", ("the quantum (x) classical bracket has no "
                                             "classical-bracket term, and 1x1 "
                                             "coefficients commute")
    if reason:
        raise UsageError(f"{flags}: {reason}; the bracket vanishes identically, so "
                         "every bracket identity would pass vacuously")


def _build_algebra(args) -> object:
    if args.composed and args.hybrid:
        raise UsageError("--composed and --hybrid are mutually exclusive")
    algebra = "composed" if args.composed else "hybrid" if args.hybrid else args.realization
    _refuse_unread_options(args, algebra)
    _refuse_vacuous(args, algebra)
    if args.composed:
        a1 = _positive(args.a1, "--a1")
        a2 = _positive(args.a2, "--a2")
        a12 = _positive(args.a12, "--a12")
        dim1 = _positive(args.dim1, "--dim1")
        dim2 = _positive(args.dim2, "--dim2")
        return ComposedAlgebra(OperatorAlgebra(dim1, hbar=2 * math.sqrt(a1)),
                               OperatorAlgebra(dim2, hbar=2 * math.sqrt(a2)),
                               a12=a12)
    if args.hybrid:
        a1 = _positive(args.a1 if args.a1 is not None else 1.0, "--a1")
        a12 = args.a12 if args.a12 is not None else a1
        dim = _positive(args.dim, "--dim")
        return ComposedAlgebra(OperatorAlgebra(dim, hbar=2 * math.sqrt(a1)),
                               _phase_space(args, default_degree=2),
                               a12=_positive(a12, "--a12"))
    if args.realization == "operator":
        dim = _positive(args.dim, "--dim")
        hbar = _positive(args.hbar, "--hbar")
        return OperatorAlgebra(dim, hbar=hbar)
    return _phase_space(args, default_degree=3)


def _phase_space(args, default_degree: int) -> PhaseSpaceAlgebra:
    pairs = _positive(args.pairs, "--pairs")
    degree = args.degree if args.degree is not None else default_degree
    _check_polynomial_size(pairs, degree)
    return PhaseSpaceAlgebra(pairs, max_random_degree=degree)


def cmd_verify(args) -> int:
    alg = _build_algebra(args)
    trials = _positive(args.trials, "--trials")
    tolerance = _positive(args.tolerance, "--tolerance")
    report = run_axiom_suite(alg, trials=trials, tolerance=tolerance, seed=args.seed)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.identity.value:<20} max defect "
              f"{check.max_relative_defect:.3e} (tolerance {check.tolerance:.1e})",
              file=sys.stderr)
    _write_report(report.to_json(), args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

#: witness searches demanded by the expected failure pattern
_SEARCH_PLAN = {
    MixedBracketKind.BOUCHER_TRASCHEN: ("jacobi",),
    MixedBracketKind.ALEKSANDROV: ("jacobi",),
    MixedBracketKind.ANDERSON: ("antisymmetry",),
    MixedBracketKind.HYBRID_PAPER: DESIDERATA,
}


def cmd_brackets(args) -> int:
    seed, budget = args.seed, args.budget
    trials = _positive(args.trials, "--trials")
    if budget < 1:
        raise UsageError(f"--budget must be >= 1, got {budget}")
    hbar = _positive(args.hbar, "--hbar")
    kinds = ([MixedBracketKind(args.kind)] if args.kind
             else list(MixedBracketKind))

    defects = []
    searches = []
    passed = True
    for kind in kinds:
        triple = measure_defects(kind, trials=trials, seed=seed, hbar=hbar)
        defects.append(triple.to_json())
        passed = passed and triple.matches_expected_pattern()
        for desideratum in _SEARCH_PLAN[kind]:
            witness = find_violation_witness(triple, desideratum, budget)
            expect_clean = EXPECTED_CLEAN[kind][desideratum]
            entry = {
                "kind": kind.value,
                "desideratum": desideratum,
                "budget": budget,
                "found": witness is not None,
                "witness": witness,
                "replay_defect": None,
                "replay_agrees": None,
            }
            if witness is not None:
                replayed = replay_defect(witness, hbar=hbar)
                entry["replay_defect"] = replayed
                entry["replay_agrees"] = (
                    abs(replayed - witness["defect"])
                    <= 1e-10 * max(1.0, abs(witness["defect"]))
                )
                passed = passed and entry["replay_agrees"]
            # a clean desideratum must yield no witness; a broken one must
            passed = passed and ((witness is None) == expect_clean)
            searches.append(entry)
        print(f"[{'pass' if triple.matches_expected_pattern() else 'FAIL'}] {kind.value:<18} "
              f"antisym {triple.antisymmetry_defect:.2e}  "
              f"jacobi {triple.jacobi_defect:.2e}  "
              f"derivation {triple.derivation_defect:.2e}", file=sys.stderr)

    report = {
        "report_kind": "brackets",
        "defects": defects,
        "witness_searches": searches,
        "passed": passed,
        "seed": seed,
        "timestamp": _timestamp(),
    }
    _write_report(report, args.out)
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _trajectory_csv(traj) -> str:
    header = ["t"] + [f"{obs}.{b}" for obs in TRACKED for b in BASIS]
    return _csv_text(header, ([f"{t:.17g}"] + [f"{v:.17g}" for v in coeffs.ravel()]
                              for t, coeffs in zip(traj.times, traj.coefficients)))


def cmd_simulate(args) -> int:
    cfg = MeasurementConfig(
        m1=_positive(args.m1, "--m1"),
        m2=_positive(args.m2, "--m2"),
        g0=args.g0,
        t0=args.t0,
        dt=_positive(args.dt, "--dt"),
        hbar=_positive(args.hbar, "--hbar"),
        regime=args.regime,
    )
    t_end = _positive(args.t_end if args.t_end is not None else cfg.t0 + cfg.dt + 0.5,
                      "--t-end")
    samples = args.samples
    if samples < 2:
        raise UsageError(f"--samples must be >= 2, got {samples}")

    traj = evolve(cfg, t_end, samples)
    _write_text(_trajectory_csv(traj), args.out, "trajectory")

    summary = {
        "report_kind": "simulate",
        "config": {
            "m1": cfg.m1, "m2": cfg.m2, "g0": cfg.g0, "t0": cfg.t0, "dt": cfg.dt,
            "hbar": cfg.hbar, "regime": cfg.regime.value,
        },
        "back_reaction_gap": back_reaction_gap(cfg, t_end),
        "t_end": t_end,
        "samples": samples,
        "timestamp": _timestamp(),
    }
    if args.summary_out or args.out:   # stdout holds the CSV otherwise
        _write_report(summary, args.summary_out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def _parse_grid(spec: str):
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise UsageError(f"--grid must be lo:hi:n, got {spec!r}")
    if not (0 < lo < hi < math.inf and n >= 1):
        raise UsageError(f"--grid needs 0 < lo < hi < inf and n >= 1, got {spec!r}")
    return np.geomspace(lo, hi, n)


def _scan_csv(verdicts) -> str:
    header = ["a1", "a2", "a12", "factor_left", "factor_right",
              "expected_left", "expected_right", "passed"]
    return _csv_text(header, ([
        f"{v['a1']:.17g}", f"{v['a2']:.17g}", f"{v['a12']:.17g}",
        f"{v['left']['measured_factor']:.17g}",
        f"{v['right']['measured_factor']:.17g}",
        f"{v['left']['expected_factor']:.17g}",
        f"{v['right']['expected_factor']:.17g}",
        "1" if v["passed"] else "0",
    ] for v in verdicts))


def cmd_uniqueness(args) -> int:
    seed = args.seed
    tolerance = _positive(args.tolerance, "--tolerance")
    constants = ("a1", "a2", "a12")
    if args.mode == "scan":
        for name in constants:
            if getattr(args, name) is not None:
                raise UsageError(f"--{name} does not apply to the scan mode")
        values = _parse_grid(args.grid)
        verdicts = scan_constants(values, tolerance=tolerance, seed=seed)
        # the theory predicts the pass set is exactly the diagonal
        diagonal_ok = all(
            v["passed"] == (v["a1"] == v["a2"] == v["a12"]) for v in verdicts
        )
        _write_text(_scan_csv(verdicts), args.out, "scan")
        report = {
            "report_kind": "uniqueness",
            "verdicts": verdicts,
            "pass_set_is_diagonal": diagonal_ok,
            "passed": diagonal_ok,
            "timestamp": _timestamp(),
        }
        if args.json_out:
            _write_report(report, args.json_out)
        return EXIT_PASS if diagonal_ok else EXIT_FAIL

    named = ["--json-out"] if args.json_out is not None else []
    named += ["--grid"] if args.grid != _defaults("uniqueness").grid else []
    if named:
        raise UsageError(f"{', '.join(named)} not used without the scan mode")
    for name in constants:
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required (or use the scan mode)")
        _positive(getattr(args, name), f"--{name}")
    verdict = uniqueness_check(args.a1, args.a2, args.a12, tolerance=tolerance, seed=seed)
    report = {
        "report_kind": "uniqueness",
        "verdicts": [verdict],
        "pass_set_is_diagonal": None,
        "passed": verdict["passed"],
        "timestamp": _timestamp(),
    }
    _write_report(report, args.out)
    return EXIT_PASS if verdict["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser.  An option's default is None only where it depends
    on other options (see the subcommands) or where None means "absent".

    ``--seed``'s default is read from ``HAMALG_SEED`` when the parser is
    built, so one parser is built per value of that variable and reused:
    parsing leaves no state on it.
    """
    return _parser(os.environ.get("HAMALG_SEED"))


@functools.cache
def _parser(seed_env: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamalg",
        description="Verification tooling for quantum/classical Hamilton algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, seed_help="RNG seed (fallback: HAMALG_SEED, then 0)"):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        # a string default goes through the type, so a bad HAMALG_SEED is a usage error
        p.add_argument("--seed", type=_seed, default=seed_env or 0, help=seed_help)
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--out", help="output file (default: stdout)")
        return p

    p_verify = command("verify", cmd_verify, "run the identity suite on an algebra")
    p_verify.add_argument("--realization", choices=["operator", "phase-space"],
                          default="operator")
    p_verify.add_argument("--dim", type=int, default=2, help="operator dimension")
    p_verify.add_argument("--hbar", type=float, default=1.0)
    p_verify.add_argument("--pairs", type=int, default=1,
                          help="canonical pairs (phase-space)")
    p_verify.add_argument("--degree", type=int,
                          help="max degree of random polynomials (default: 3; 2 with --hybrid)")
    p_verify.add_argument("--composed", action="store_true",
                          help="quantum (x) quantum composition")
    p_verify.add_argument("--hybrid", action="store_true",
                          help="quantum (x) classical composition")
    # required with --composed; with --hybrid --a1 defaults to 1.0 and --a12 to --a1
    p_verify.add_argument("--a1", type=float)
    p_verify.add_argument("--a2", type=float)
    p_verify.add_argument("--a12", type=float)
    p_verify.add_argument("--dim1", type=int, default=2)
    p_verify.add_argument("--dim2", type=int, default=2)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--tolerance", type=float, default=1e-9)

    p_brackets = command("brackets", cmd_brackets,
                         "mixed-bracket defects and witness searches")
    p_brackets.add_argument("--kind", choices=[k.value for k in MixedBracketKind],
                            help="restrict to one bracket (default: all)")
    p_brackets.add_argument("--trials", type=int, default=200)
    p_brackets.add_argument("--budget", type=int, default=1000,
                            help="witness search budget (default 1000)")
    p_brackets.add_argument("--hbar", type=float, default=1.0)

    p_sim = command("simulate", cmd_simulate, "evolve the coupled measurement model",
                    seed_help="accepted and validated like the other commands' --seed, "
                              "but unused: the model draws nothing")
    p_sim.add_argument("--regime", choices=[r.value for r in Regime], default="qq")
    p_sim.add_argument("--m1", type=float, default=1.0)
    p_sim.add_argument("--m2", type=float, default=1.0)
    p_sim.add_argument("--g0", type=float, default=0.7)
    p_sim.add_argument("--t0", type=float, default=0.0)
    p_sim.add_argument("--dt", type=float, default=1.3)
    p_sim.add_argument("--hbar", type=float, default=1.0,
                       help="validated (> 0) and echoed into the summary's config.hbar "
                            "only: the generator does not depend on hbar, to the bit")
    p_sim.add_argument("--t-end", dest="t_end", type=float,
                       help="end of the sampled interval (default: t0 + dt + 0.5)")
    p_sim.add_argument("--samples", type=int, default=21)
    p_sim.add_argument("--summary-out", dest="summary_out",
                       help="write the JSON summary here (default: stdout when "
                            "the CSV goes to a file)")

    p_uni = command("uniqueness", cmd_uniqueness,
                    "restriction factors for constant triples")
    p_uni.add_argument("mode", nargs="?", choices=["scan"],
                       help="scan a grid of constant triples instead of one triple")
    p_uni.add_argument("--a1", type=float)
    p_uni.add_argument("--a2", type=float)
    p_uni.add_argument("--a12", type=float)
    p_uni.add_argument("--tolerance", type=float, default=1e-8)
    p_uni.add_argument("--json-out", dest="json_out",
                       help="also write the JSON verdict table (scan mode)")
    p_uni.add_argument("--grid", default="0.25:4:5", help="lo:hi:n log-spaced (scan mode)")

    return parser


def main(argv=None) -> int:
    """Run one command line.  Its products share their slotting plans
    (``kernels.plan_scope``), which are dropped when it returns or exits."""
    argv = sys.argv[1:] if argv is None else list(argv)
    with plan_scope():
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            if args.config:
                args = parser.parse_args(_config_argv(args, argv))
            return args.func(args)
        except (UsageError, HamalgError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

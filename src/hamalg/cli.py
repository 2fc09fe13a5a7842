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
explicit flags win.  Every default is declared on its option, and every
option's range lives in its type (``_at_least``, ``_finite``,
``_positive_finite``), so argparse refuses a value out of range, from a
flag or the config file, with a message naming the option; the
``cmd_*`` functions check only rules that tie options together.
argparse reads a token that starts with ``-`` and is not a plain decimal
such as ``-0.5`` as an option, so a negative value in exponent form is
joined to its option: ``simulate --g0=-1e-3``, not ``--g0 -1e-3``.
Each report is a dict that its ``cmd_*`` function assembles here; the
modules below return the report's entries (``identities.check_identity``
a check, ``brackets.measure_defects`` a bracket's defects and
``uniqueness.uniqueness_check`` a verdict).
All reports validate against the schema shipped at
``hamalg/schemas/report.schema.json``.  A report is written once the
compiled check of the root ``oneOf``, a tagged union keyed by
``report_kind``, passes it; that check covers the whole report, so a
valid report never loads jsonschema.  Only a report the check refuses
goes through stock Draft-7 ``jsonschema.validate``, so every rejection
and its message still come from jsonschema.  The check covers exactly
the constructs the shipped schema uses; a schema edit that adds any
other raises ``ValueError``, naming it, at the first report.
A valid report's text is built by ``serialize.dumps_indent2``, equal to
``json.dumps(report, indent=2)``: witness term lists are written by one
cached template each, and the rest of the report item by item.
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

from .algebra import OperatorAlgebra, PhaseSpaceAlgebra
from .brackets import (
    DESIDERATA,
    EXPECTED_CLEAN,
    MixedBracketKind,
    find_violation_witness,
    measure_defects,
)
from .compose import ComposedAlgebra
from .elements import QuantumConstant, product_monomials
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
# report validation: a compiled check of the whole report, from the root ``oneOf``
# ---------------------------------------------------------------------------

#: the Python types a compiled check accepts for each draft-07 type name
_TYPES = {"number": (int, float), "integer": (int,), "string": (str,),
          "boolean": (bool,), "null": (type(None),), "array": (list,), "object": (dict,)}
#: the keywords a compiled check covers, each with the kind of instance it
#: constrains, or None for a keyword that constrains any kind
_KINDS = {"type": None, "const": None, "enum": None, "oneOf": None,
          "minimum": "number", "exclusiveMinimum": "number", "minItems": "array",
          "maxItems": "array", "items": "array", "required": "object",
          "properties": "object"}


def _resolve(schema, root: dict) -> dict:
    """``schema``, or where it is a lone ``$ref`` to ``#/$defs/<name>`` of
    ``root``, the schema that the reference leads to."""
    if type(schema) is not dict:
        raise ValueError(f"the report check covers object schemas, not {schema!r}")
    if "$ref" not in schema:
        return schema
    prefix = "#/$defs/"
    ref = schema["$ref"]
    name = ref[len(prefix):]
    # draft-07 ignores the siblings of $ref
    if len(schema) > 1 or not ref.startswith(prefix) or name not in root["$defs"]:
        raise ValueError(f"the report check covers a lone $ref to {prefix}<name>, "
                         f"not {schema!r}")
    return _resolve(root["$defs"][name], root)


def _both(first, second):
    return lambda x: first(x) and second(x)


def _compile_check(schema, root: dict):
    """A predicate for instances of ``schema`` (draft-07), a node of the
    shipped report schema ``root``.

    The predicate is one-sided: it returns True only where stock
    validation of the instance against ``schema`` yields no error, and
    False where it may yield one.  ``number`` holds for ``int`` and
    ``float`` exactly, ``integer`` for ``int``, ``array`` for ``list`` and
    ``object`` for ``dict``; ``const`` and ``enum`` hold only for strings.
    So bools as numbers, numpy scalars, ``2.0`` as an integer and NaN
    against a bound all give False.

    The check covers what the shipped schema uses and nothing else: the
    keywords of ``_KINDS``, a lone ``$ref`` to ``#/$defs/<name>`` of
    ``root``, keywords for one kind of instance per node, and a ``oneOf``
    that is a tagged union (see ``_compile_tagged_union``).  Anything else
    raises ``ValueError`` naming it, and a cyclic ``$ref`` raises
    ``RecursionError``, so a schema edit fails at the first report.
    """
    schema = _resolve(schema, root)
    uncovered = schema.keys() - _KINDS.keys()
    if uncovered:
        raise ValueError(f"the report check does not cover the keywords {sorted(uncovered)}")
    kinds = {_KINDS[key] for key in schema} - {None}
    names = schema.get("type", list(_TYPES))
    allowed = {t for n in ([names] if type(names) is str else names) for t in _TYPES[n]}
    for kind in kinds:
        allowed &= set(_TYPES[kind])
    # no type is of two kinds, so this also refuses keywords for two kinds
    if kinds and not allowed:
        raise ValueError(f"the report check covers one kind of instance per node, "
                         f"not {schema!r}")
    kind = kinds.pop() if kinds else None
    checks = []
    if kind or "type" in schema:
        checks.append(_kind_check(kind, schema, frozenset(allowed), root))
    if "const" in schema:
        const = schema["const"]
        checks.append(lambda x: type(x) is str and x == const)
    if "enum" in schema:
        members = frozenset(schema["enum"])
        checks.append(lambda x: type(x) is str and x in members)
    if "oneOf" in schema:
        checks.append(_compile_tagged_union(schema["oneOf"], root))
    return functools.reduce(_both, checks) if checks else lambda x: True


def _kind_check(kind, schema: dict, allowed: frozenset, root: dict):
    """The check of ``type`` and of the keywords of ``kind``."""
    if kind == "number":
        low = schema.get("minimum", -math.inf)
        above = schema.get("exclusiveMinimum", -math.inf)
        return lambda x: type(x) in allowed and x >= low and x > above
    if kind == "array":
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if "items" not in schema:
            return lambda x: type(x) is list and low <= len(x) <= high
        item = _compile_check(schema["items"], root)
        return lambda x: type(x) is list and low <= len(x) <= high and all(map(item, x))
    if kind == "object":
        required = schema.get("required", [])
        checks = tuple((key, _compile_check(sub, root))
                       for key, sub in schema.get("properties", {}).items())

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


def _compile_tagged_union(branches: list, root: dict):
    """The check of a ``oneOf`` over ``branches`` that is a tagged union.

    A tagged union's branches, each after its lone ``$ref`` is followed,
    all require one common key whose property is a ``const`` (the tag); no
    two share a tag.  The check reads the instance's tag, only from a dict
    and only as a string, and runs that one branch's check.  It is
    one-sided, because an instance carrying one branch's tag fails every
    other branch's ``const``.  Any other ``oneOf`` raises ``ValueError``.
    """
    checks = [_compile_check(branch, root) for branch in branches]
    tags = [_tags(branch, root) for branch in branches]
    key = next((k for k in tags[0] if all(k in t for t in tags)), None)
    by_tag = dict(zip((t.get(key) for t in tags), checks))
    if key is None or len(by_tag) < len(branches):
        raise ValueError(f"the report check covers a oneOf only as a tagged union, "
                         f"not {branches!r}")

    def check_tagged(x) -> bool:
        tag = x.get(key) if type(x) is dict else None
        return type(tag) is str and tag in by_tag and by_tag[tag](x)
    return check_tagged


def _tags(schema: dict, root: dict) -> dict:
    """The keys that ``schema`` requires and pins with a ``const``, each
    with its ``const``."""
    schema = _resolve(schema, root)
    properties = schema.get("properties", {})
    return {key: properties[key]["const"] for key in schema.get("required", [])
            if "const" in properties.get(key, {})}


#: the root keys that a report check reads or that carry no constraint
_ROOT_KEYS = frozenset({"$schema", "$id", "title", "oneOf", "$defs"})


@functools.cache
def _report_check():
    """The one-sided check of the shipped schema's root ``oneOf``, which it
    reads alone: any other constraining root key raises ``ValueError``."""
    schema = _load_schema()
    uncovered = schema.keys() - _ROOT_KEYS
    if uncovered:
        raise ValueError(f"the report check reads only the root's oneOf, "
                         f"not the root keys {sorted(uncovered)}")
    return _compile_tagged_union(schema["oneOf"], schema)


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
    """Validate against the shipped schema, then write or print.  Only a
    report the compiled check refuses loads jsonschema, whose import costs
    more than a valid report's whole check; stock Draft-7 then raises."""
    if not _report_check()(report):
        import jsonschema
        jsonschema.validate(report, _load_schema(), cls=jsonschema.Draft7Validator)
    _write_text(dumps_indent2(report) + "\n", out_path, "report")


def _at_least(low: int):
    """The type of an int option that must be >= ``low``; argparse turns
    a refusal into a usage error naming the option."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _finite(text: str) -> float:
    """The type of a float option that must be finite."""
    value = _float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _positive_finite(text: str) -> float:
    """The type of a float option that must be positive and finite."""
    value = _float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_polynomial_size(pairs: int, degree: int) -> None:
    """Refuse random polynomials whose nested products would be too large
    (see MAX_PRODUCT_MONOMIALS)."""
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
        if None in (args.a1, args.a2, args.a12):
            raise UsageError("--a1, --a2, --a12 required with --composed")
        return ComposedAlgebra(OperatorAlgebra(args.dim1, a=args.a1),
                               OperatorAlgebra(args.dim2, a=args.a2), a12=args.a12)
    if args.hybrid:
        a1 = args.a1 if args.a1 is not None else 1.0
        return ComposedAlgebra(OperatorAlgebra(args.dim, a=a1),
                               _phase_space(args, default_degree=2),
                               a12=args.a12 if args.a12 is not None else a1)
    if args.realization == "operator":
        return OperatorAlgebra(args.dim, a=QuantumConstant.from_hbar(args.hbar).a)
    return _phase_space(args, default_degree=3)


def _phase_space(args, default_degree: int) -> PhaseSpaceAlgebra:
    degree = args.degree if args.degree is not None else default_degree
    _check_polynomial_size(args.pairs, degree)
    return PhaseSpaceAlgebra(args.pairs, max_random_degree=degree)


def cmd_verify(args) -> int:
    alg = _build_algebra(args)
    checks = run_axiom_suite(alg, args.trials, args.tolerance, args.seed)
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['identity']:<20} max defect "
              f"{check['max_relative_defect']:.3e} (tolerance {check['tolerance']:.1e})",
              file=sys.stderr)
    passed = all(check["passed"] for check in checks)
    report = {
        "report_kind": "verify",
        "algebra": alg.describe(),
        "checks": checks,
        "passed": passed,
        "timestamp": _timestamp(),
    }
    _write_report(report, args.out)
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

#: witness searches demanded by the expected failure pattern: each bracket
#: searches its first broken desideratum, and a bracket with none broken all three
_SEARCH_PLAN = {
    kind: next(((name,) for name in DESIDERATA if not clean[name]), DESIDERATA)
    for kind, clean in EXPECTED_CLEAN.items()
}


def cmd_brackets(args) -> int:
    seed, trials, budget, hbar = args.seed, args.trials, args.budget, args.hbar
    kinds = ([MixedBracketKind(args.kind)] if args.kind
             else list(MixedBracketKind))

    defects = []
    searches = []
    passed = True
    for kind in kinds:
        entry, scans = measure_defects(kind, trials=trials, seed=seed, hbar=hbar)
        defects.append(entry)
        passed = passed and entry["matches_expected_pattern"]
        for desideratum in _SEARCH_PLAN[kind]:
            witness = find_violation_witness(scans, desideratum, budget)
            expect_clean = EXPECTED_CLEAN[kind][desideratum]
            search = {
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
                search["replay_defect"] = replayed
                search["replay_agrees"] = (
                    abs(replayed - witness["defect"])
                    <= 1e-10 * max(1.0, abs(witness["defect"]))
                )
                passed = passed and search["replay_agrees"]
            # a clean desideratum must yield no witness; a broken one must
            passed = passed and ((witness is None) == expect_clean)
            searches.append(search)
        print(f"[{'pass' if entry['matches_expected_pattern'] else 'FAIL'}] {kind.value:<18} "
              f"antisym {entry['antisymmetry_defect']:.2e}  "
              f"jacobi {entry['jacobi_defect']:.2e}  "
              f"derivation {entry['derivation_defect']:.2e}", file=sys.stderr)

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
    cfg = MeasurementConfig(m1=args.m1, m2=args.m2, g0=args.g0, t0=args.t0, dt=args.dt,
                            regime=args.regime)
    t_end, samples = args.t_end, args.samples
    if t_end is None:
        t_end = cfg.t0 + cfg.dt + 0.5
        if not 0 < t_end < math.inf:
            raise UsageError(f"the default end of the sampled interval, t0 + dt + 0.5 = "
                             f"{t_end}, must be positive and finite; give --t-end")

    traj = evolve(cfg, t_end, samples)
    _write_text(_trajectory_csv(traj), args.out, "trajectory")

    summary = {
        "report_kind": "simulate",
        "config": {
            "m1": cfg.m1, "m2": cfg.m2, "g0": cfg.g0, "t0": cfg.t0, "dt": cfg.dt,
            "hbar": args.hbar, "regime": cfg.regime.value,
        },
        "back_reaction_gap": back_reaction_gap(traj),
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
    if n == 1:
        return [lo]
    # endpoints pinned, so that a power-of-two ratio gives exact points
    inner = (lo * (hi / lo) ** (k / (n - 1)) for k in range(1, n - 1))
    return [lo, *inner, hi]


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
    constants = ("a1", "a2", "a12")
    if args.mode == "scan":
        for name in constants:
            if getattr(args, name) is not None:
                raise UsageError(f"--{name} does not apply to the scan mode")
        verdicts = scan_constants(_parse_grid(args.grid), tolerance=args.tolerance,
                                  seed=args.seed)
        # the theory predicts the pass set is exactly the diagonal
        diagonal = all(v["passed"] == (v["a1"] == v["a2"] == v["a12"]) for v in verdicts)
        passed, out = diagonal, args.json_out
        _write_text(_scan_csv(verdicts), args.out, "scan")
    else:
        named = ["--json-out"] if args.json_out is not None else []
        named += ["--grid"] if args.grid != _defaults("uniqueness").grid else []
        if named:
            raise UsageError(f"{', '.join(named)} not used without the scan mode")
        for name in constants:
            if getattr(args, name) is None:
                raise UsageError(f"--{name} is required (or use the scan mode)")
        verdicts = [uniqueness_check(args.a1, args.a2, args.a12, tolerance=args.tolerance,
                                     seed=args.seed)]
        diagonal, passed, out = None, verdicts[0]["passed"], args.out
    report = {
        "report_kind": "uniqueness",
        "verdicts": verdicts,
        "pass_set_is_diagonal": diagonal,
        "passed": passed,
        "timestamp": _timestamp(),
    }
    if args.mode is None or out:   # the scan writes its report only to --json-out
        _write_report(report, out)
    return EXIT_PASS if passed else EXIT_FAIL


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
        p.add_argument("--seed", type=_at_least(0), default=seed_env or 0, help=seed_help)
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--out", help="output file (default: stdout)")
        return p

    p_verify = command("verify", cmd_verify, "run the identity suite on an algebra")
    p_verify.add_argument("--realization", choices=["operator", "phase-space"],
                          default="operator")
    p_verify.add_argument("--dim", type=_at_least(1), default=2, help="operator dimension")
    p_verify.add_argument("--hbar", type=_positive_finite, default=1.0)
    p_verify.add_argument("--pairs", type=_at_least(1), default=1,
                          help="canonical pairs (phase-space)")
    p_verify.add_argument("--degree", type=_at_least(0),
                          help="max degree of random polynomials (default: 3; 2 with --hybrid)")
    p_verify.add_argument("--composed", action="store_true",
                          help="quantum (x) quantum composition")
    p_verify.add_argument("--hybrid", action="store_true",
                          help="quantum (x) classical composition")
    # required with --composed; with --hybrid --a1 defaults to 1.0 and --a12 to --a1
    p_verify.add_argument("--a1", type=_positive_finite)
    p_verify.add_argument("--a2", type=_positive_finite)
    p_verify.add_argument("--a12", type=_positive_finite)
    p_verify.add_argument("--dim1", type=_at_least(1), default=2)
    p_verify.add_argument("--dim2", type=_at_least(1), default=2)
    p_verify.add_argument("--trials", type=_at_least(1), default=200)
    p_verify.add_argument("--tolerance", type=_positive_finite, default=1e-9)

    p_brackets = command("brackets", cmd_brackets,
                         "mixed-bracket defects and witness searches")
    p_brackets.add_argument("--kind", choices=[k.value for k in MixedBracketKind],
                            help="restrict to one bracket (default: all)")
    p_brackets.add_argument("--trials", type=_at_least(1), default=200)
    p_brackets.add_argument("--budget", type=_at_least(1), default=1000,
                            help="witness search budget (default 1000)")
    p_brackets.add_argument("--hbar", type=_positive_finite, default=1.0)

    p_sim = command("simulate", cmd_simulate, "evolve the coupled measurement model",
                    seed_help="accepted and validated like the other commands' --seed, "
                              "but unused: the model draws nothing")
    p_sim.add_argument("--regime", choices=[r.value for r in Regime], default="qq")
    p_sim.add_argument("--m1", type=_positive_finite, default=1.0)
    p_sim.add_argument("--m2", type=_positive_finite, default=1.0)
    p_sim.add_argument("--g0", type=_finite, default=0.7,
                       help="coupling inside the window [t0, t0 + dt); give a negative "
                            "value in exponent form as --g0=-1e-3")
    p_sim.add_argument("--t0", type=_finite, default=0.0,
                       help="start of the coupling window; give a negative value in "
                            "exponent form as --t0=-1e-3")
    p_sim.add_argument("--dt", type=_positive_finite, default=1.3)
    p_sim.add_argument("--hbar", type=_positive_finite, default=1.0,
                       help="validated (> 0) and echoed into the summary's config.hbar "
                            "only: the measurement model takes no hbar")
    p_sim.add_argument("--t-end", dest="t_end", type=_positive_finite,
                       help="end of the sampled interval (default: t0 + dt + 0.5)")
    p_sim.add_argument("--samples", type=_at_least(2), default=21)
    p_sim.add_argument("--summary-out", dest="summary_out",
                       help="write the JSON summary here (default: stdout when "
                            "the CSV goes to a file)")

    p_uni = command("uniqueness", cmd_uniqueness,
                    "restriction factors for constant triples")
    p_uni.add_argument("mode", nargs="?", choices=["scan"],
                       help="scan a grid of constant triples instead of one triple")
    p_uni.add_argument("--a1", type=_positive_finite)
    p_uni.add_argument("--a2", type=_positive_finite)
    p_uni.add_argument("--a12", type=_positive_finite)
    p_uni.add_argument("--tolerance", type=_positive_finite, default=1e-8)
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

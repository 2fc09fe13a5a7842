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
``hamalg/schemas/report.schema.json``, with ``jsonschema.validate``; a
compiled check of each witness item (a ``[re, im]`` pair, a polynomial
term, an exponent list) runs first, and jsonschema's own ``items``
keyword descends only into arrays with an item the check does not pass.
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

from .algebra import OperatorAlgebra, PhaseSpaceAlgebra
from .brackets import (
    DESIDERATA,
    EXPECTED_CLEAN,
    MixedBracketKind,
    find_violation_witness,
    measure_defects,
)
from .compose import ComposedAlgebra
from .errors import HamalgError
from .identities import run_axiom_suite
from .measurement import BASIS, TRACKED, MeasurementConfig, Regime, back_reaction_gap, evolve
from .reference import replay_defect
from .uniqueness import log_grid, scan_constants, uniqueness_check

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
# report validation: compiled item checks in front of jsonschema's ``items``
# ---------------------------------------------------------------------------

#: the keywords a compiled check covers, by the kind of instance they constrain
_KEYWORD_KINDS = {"minimum": "number", "minItems": "array", "maxItems": "array",
                  "items": "array", "required": "object", "properties": "object"}
_TYPE_KINDS = {"number": "number", "integer": "number", "array": "array",
               "object": "object"}


def _is_number(x) -> bool:
    return type(x) is float or type(x) is int


def _is_int(x) -> bool:
    return type(x) is int


def _compile_check(schema, root: dict, refs: tuple = ()):
    """A predicate for instances of ``schema`` (draft-07), or None.

    The predicate is one-sided: it returns True only where stock
    validation of the instance against ``schema`` yields no error, and
    False where it may yield one.  ``number`` holds for ``int`` and
    ``float`` exactly, ``integer`` for ``int``, ``array`` for ``list`` and
    ``object`` for ``dict``, so bools, numpy scalars, ``2.0`` as an
    integer and NaN against a minimum all give False.  None means that
    ``schema`` uses something else: a keyword outside ``type``,
    ``minimum``, ``minItems``, ``maxItems``, ``items``, ``required``,
    ``properties`` and a lone ``$ref`` to ``#/$defs/<name>`` of ``root``;
    a ``type`` list; keywords for two kinds of instance; or a cyclic
    reference.
    """
    if type(schema) is not dict:
        return None
    if "$ref" in schema:
        ref = schema["$ref"]
        prefix = "#/$defs/"
        name = ref[len(prefix):] if type(ref) is str and ref.startswith(prefix) else None
        defs = root.get("$defs", {})
        # draft-07 ignores the siblings of $ref; "~" and "%" would need unescaping
        if (len(schema) > 1 or name not in defs or any(c in name for c in "/~%")
                or ref in refs):
            return None
        return _compile_check(defs[name], root, refs + (ref,))
    kinds = {_KEYWORD_KINDS.get(key) for key in schema if key != "type"}
    if "type" in schema:
        kinds.add(_TYPE_KINDS.get(schema["type"]) if type(schema["type"]) is str else None)
    if None in kinds or len(kinds) > 1:
        return None
    kind = kinds.pop() if kinds else None
    if kind == "number":
        integer = schema.get("type") == "integer"
        if "minimum" not in schema:
            return _is_int if integer else _is_number
        low = schema["minimum"]
        if type(low) not in (int, float):
            return None
        if integer:
            return lambda x: type(x) is int and x >= low
        return lambda x: (type(x) is float or type(x) is int) and x >= low
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
    return lambda x: True   # no keyword: every instance is valid


def _items_subschemas(node, root: dict):
    """Every subschema of ``root`` given as an ``items`` value.  Embedded
    resources (a nested ``$id``) are skipped: their references resolve
    against another base."""
    if isinstance(node, dict):
        if "$id" in node and node is not root:
            return
        for key, value in node.items():
            if key == "items" and isinstance(value, dict):
                yield value
            yield from _items_subschemas(value, root)
    elif isinstance(node, list):
        for value in node:
            yield from _items_subschemas(value, root)


def _items_checked_validator(schema: dict) -> type:
    """A draft-07 validator class for ``schema`` whose ``items`` keyword
    first runs the compiled check of its item schema on every item.

    Where every item passes, the keyword yields no error, as the stock
    keyword would.  Where an item fails, or no check compiled, the stock
    keyword runs unchanged, so every rejection, its message, its path and
    ``best_match`` come from jsonschema.  Checks are looked up by the
    identity of the item schema, so the class falls back to the stock
    keyword on any schema but ``schema``.
    """
    stock = jsonschema.Draft7Validator.VALIDATORS["items"]
    # holding each subschema keeps its id from being reused while the class lives
    checks = {id(sub): (sub, check) for sub in _items_subschemas(schema, schema)
              if (check := _compile_check(sub, schema)) is not None}

    def items(validator, items, instance, parent_schema):
        entry = checks.get(id(items))
        if entry is not None and type(instance) is list and all(map(entry[1], instance)):
            return
        yield from stock(validator, items, instance, parent_schema)

    return jsonschema.validators.extend(jsonschema.Draft7Validator, {"items": items})


@functools.cache
def _report_validator() -> type:
    return _items_checked_validator(_load_schema())


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
    _write_text(json.dumps(report, indent=2) + "\n", out_path, "report")


def _positive(value, what: str):
    if value is None or not value > 0:
        raise UsageError(f"{what} must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_polynomial_size(pairs: int, degree: int) -> None:
    """Refuse random polynomials whose nested products would be too large
    (see MAX_PRODUCT_MONOMIALS)."""
    if degree < 0:
        raise UsageError(f"--degree must be >= 0, got {degree}")
    bound = math.comb(2 * pairs + 4 * degree, 4 * degree)
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
def _verify_defaults() -> argparse.Namespace:
    return build_parser().parse_args(["verify"])


def _refuse_unread_options(args, algebra: str) -> None:
    """Usage error naming each option, set away from its default, that the
    chosen algebra would silently ignore."""
    unread = set().union(*_ALGEBRA_READS.values()) - _ALGEBRA_READS[algebra]
    named = [f"--{name}" for name, default in vars(_verify_defaults()).items()
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
            witness = find_violation_witness(kind, desideratum, budget,
                                             seed=seed, hbar=hbar)
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
    if not (lo > 0 and hi > lo and n >= 1):
        raise UsageError(f"--grid needs 0 < lo < hi and n >= 1, got {spec!r}")
    return log_grid(lo, hi, n)


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
    on other options (see the subcommands) or where None means "absent"."""
    parser = argparse.ArgumentParser(
        prog="hamalg",
        description="Verification tooling for quantum/classical Hamilton algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        # a string default goes through type=int, so a bad HAMALG_SEED is a usage error
        p.add_argument("--seed", type=int, default=os.environ.get("HAMALG_SEED") or 0,
                       help="RNG seed (fallback: HAMALG_SEED, then 0)")
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

    p_sim = command("simulate", cmd_simulate, "evolve the coupled measurement model")
    p_sim.add_argument("--regime", choices=[r.value for r in Regime], default="qq")
    p_sim.add_argument("--m1", type=float, default=1.0)
    p_sim.add_argument("--m2", type=float, default=1.0)
    p_sim.add_argument("--g0", type=float, default=0.7)
    p_sim.add_argument("--t0", type=float, default=0.0)
    p_sim.add_argument("--dt", type=float, default=1.3)
    p_sim.add_argument("--hbar", type=float, default=1.0)
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
    argv = sys.argv[1:] if argv is None else list(argv)
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

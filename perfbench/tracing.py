"""In-memory span tracing of hamalg's layers, installed from outside.

Each public function or method is wrapped at the attribute its callers
look up (a module global such as ``hamalg.elements._poly_mul``, or a
class attribute such as ``HybridElement.assoc_product``).  A wrapper
records one span per call: name, start, end, parent span and an optional
work count (term pairs, output terms, search trials).  Spans nest
strictly because the program is single-threaded, so a span's self time
is its duration minus the durations of its direct children.

Nothing in ``src/`` knows about the tracer; ``patched`` swaps the
wrappers in and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field

# fields of a span record
NAME, START, END, PARENT, WORK = range(5)


@dataclass
class Tracer:
    """Collects spans; one instance per traced workload repetition."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap(self, fn, name, work=None):
        """Return fn wrapped to record a span.

        ``name`` is a string or a callable of the call's positional args;
        ``work(args, kwargs, result)`` gives the span's work count.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list:
    """Per-span self time: duration minus the direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def aggregate(spans) -> dict:
    """name -> {"calls", "self_s", "work"} summed over spans."""
    table: dict = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["self_s"] += own
        row["work"] += s[WORK]
    return table


# ---------------------------------------------------------------------------
# the wrap table: which attribute is wrapped under which layer name
# ---------------------------------------------------------------------------

def _pairs(a, b) -> int:
    return len(a) * len(b)


def _kernel_pairs(args, kwargs, result):
    return _pairs(args[0], args[1])


def _element_pairs(args, kwargs, result):
    return _pairs(args[0].terms, args[1].terms)


def _bracket_pairs(args, kwargs, result):
    return _pairs(args[1].terms, args[2].terms)


def _out_terms(args, kwargs, result):
    return len(result.terms)


def _search_trials(args, kwargs, result):
    """Trials a witness search ran: up to the witness, else the budget."""
    if result is not None:
        return result["trial"] + 1
    return int(kwargs["budget"] if "budget" in kwargs else args[2])


def _composed_name(op):
    return lambda args: f"compose.{op}.{args[0].kind}"


#: layer name -> work-count label, for the layers that count work
WORK_LABELS = {
    "kernels.mul": "term_pairs",
    "kernels.poisson": "term_pairs",
    "elements.poly_op": "out_terms",
    "compose.assoc_product": "term_pairs",
    "brackets.mixed_bracket": "term_pairs",
    "brackets.search": "trials",
}

#: every layer name a wrapper can record
LAYERS = (
    "cli.main", "cli.report", "cli.schema_validate",
    "kernels.mul", "kernels.poisson", "elements.poly_op",
    "compose.assoc_product", "compose.sigma.qq", "compose.alpha.qq",
    "compose.sigma.qc", "compose.alpha.qc",
    "brackets.mixed_bracket", "brackets.random_hybrid_observable",
    "brackets.measure_defects", "brackets.search",
    "algebra.random_element", "identities.check_identity",
    "identities.identity_defect", "uniqueness.uniqueness_check",
    "measurement.evolve", "measurement.eom_generator",
    "serialize.element_to_json", "reference.replay_defect",
)


def wrap_points():
    """(owner, attribute, layer name, work count) for every wrapped call.

    Imported lazily: hamalg must be importable from the checkout first.
    """
    import jsonschema

    from hamalg import (algebra, brackets, cli, compose, elements, identities,
                        measurement, uniqueness)

    return [
        (elements, "_poly_mul", "kernels.mul", _kernel_pairs),
        (elements, "_poly_poisson", "kernels.poisson", _kernel_pairs),
        (brackets, "_poly_poisson", "kernels.poisson", _kernel_pairs),
        (elements.PhaseSpacePoly, "product", "elements.poly_op", _out_terms),
        (elements.PhaseSpacePoly, "poisson", "elements.poly_op", _out_terms),
        (compose.HybridElement, "assoc_product", "compose.assoc_product", _element_pairs),
        (compose.ComposedAlgebra, "sigma", _composed_name("sigma"), None),
        (compose.ComposedAlgebra, "alpha", _composed_name("alpha"), None),
        (brackets, "mixed_bracket", "brackets.mixed_bracket", _bracket_pairs),
        (brackets, "random_hybrid_observable", "brackets.random_hybrid_observable", None),
        (cli, "measure_defects", "brackets.measure_defects", None),
        (cli, "find_violation_witness", "brackets.search", _search_trials),
        (algebra.OperatorAlgebra, "random_element", "algebra.random_element", None),
        (algebra.PhaseSpaceAlgebra, "random_element", "algebra.random_element", None),
        (compose.ComposedAlgebra, "random_element", "algebra.random_element", None),
        (identities, "check_identity", "identities.check_identity", None),
        (identities, "identity_defect", "identities.identity_defect", None),
        (uniqueness, "uniqueness_check", "uniqueness.uniqueness_check", None),
        (cli, "uniqueness_check", "uniqueness.uniqueness_check", None),
        (cli, "evolve", "measurement.evolve", None),
        (measurement, "eom_generator", "measurement.eom_generator", None),
        (brackets, "element_to_json", "serialize.element_to_json", None),
        (identities, "element_to_json", "serialize.element_to_json", None),
        (cli, "replay_defect", "reference.replay_defect", None),
        (jsonschema, "validate", "cli.schema_validate", None),
        (cli, "_write_report", "cli.report", None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers; restore the originals on exit.

    A wrap point the program no longer has is reported and skipped, so a
    refactor shows up as a zero layer rather than a failed run.
    """
    saved = []
    try:
        for owner, attr, name, work in wrap_points():
            if attr not in owner.__dict__:
                print(f"warning: {owner.__name__}.{attr} not found; not traced",
                      file=sys.stderr)
                continue
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

"""The sparse polynomial kernel against the dense brute-force oracle.

The four cases are those of ``benchmarks/bench_kernels.py``: random
dense-coefficient polynomials, including the large intermediates of the
triple-nested identities.  Each ``mul`` and ``poisson`` result of the
kernel hamalg is running is compared with ``reference.dense_poly_mul`` /
``dense_poly_poisson``, which share no code with it.
"""

from __future__ import annotations

import statistics
import time

CASES = (
    ("1pair_d3", 1, 3, 3),
    ("2pair_d3", 2, 3, 3),
    ("2pair_d6", 2, 6, 6),
    ("3pair_d4", 3, 4, 4),
)
OPS = ("mul", "poisson")
REPEATS = 3

#: Summation order differs between the routes; coefficients are O(10),
#: so 1e-12 relative to the largest is ~100x the observed rounding.
REL_TOL = 1e-12


def metric_names() -> list:
    return [(f"kernels.check.{label}.{op}.{what}", unit)
            for label, *_ in CASES for op in OPS
            for what, unit in (("term_pairs", "count"), ("s", "s"))]


def run(seed: int):
    """Time and check every case; returns (metrics, problems)."""
    import numpy as np

    from hamalg import kernels, reference
    from hamalg.elements import monomials_up_to_degree

    rng = np.random.default_rng(seed)
    metrics, problems = {}, []
    for label, pairs, d1, d2 in CASES:
        nvars = 2 * pairs
        a = {e: rng.uniform(-1.0, 1.0) for e in monomials_up_to_degree(nvars, d1)}
        b = {e: rng.uniform(-1.0, 1.0) for e in monomials_up_to_degree(nvars, d2)}
        dense_a = reference.poly_terms_to_dense(a, nvars)
        dense_b = reference.poly_terms_to_dense(b, nvars)
        for op in OPS:
            if op == "mul":
                call = lambda: kernels.mul(a, b, nvars)  # noqa: E731
                want = reference.dense_poly_mul(dense_a, dense_b)
            else:
                call = lambda: kernels.poisson(a, b, pairs)  # noqa: E731
                want = reference.dense_poly_poisson(dense_a, dense_b, pairs)
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                got = call()
                times.append(time.perf_counter() - start)
            want_terms = reference.dense_to_poly_terms(want)
            scale = max((abs(c) for c in want_terms.values()), default=1.0)
            worst = max((abs(got.get(e, 0.0) - want_terms.get(e, 0.0))
                         for e in set(got) | set(want_terms)), default=0.0)
            if worst > REL_TOL * scale:
                problems.append(f"kernel {op} on {label}: differs from the dense "
                                f"oracle by {worst:.3e} (scale {scale:.3e})")
            metrics[f"kernels.check.{label}.{op}.term_pairs"] = len(a) * len(b)
            metrics[f"kernels.check.{label}.{op}.s"] = statistics.median(times)
    return metrics, problems

"""Micro-benchmarks of the two bottom layers.

scalars: add, mul and inv on seeded random elements of Q, Q(zeta_3) and
Q(zeta_4).  linalg: solve and matmul on the real antipode systems, the
matrix and right-hand side that ``hopf.compute_antipode`` hands to
``solve`` for the seed-relabelled sweedler (Q), taft-3 (Q(zeta_3)) and
taft-4 (Q(zeta_4)), of size n^2 = 16, 81 and 256.  Each timing is the
median of several repetitions; each linalg timing comes with the number of
scalar operations one call performs, counted in a separate untimed call.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from hopfcheck import hopf
from hopfcheck.linalg import solve
from hopfcheck.scalars import RATIONAL, Scalar, cyclotomic_field

import inputs
import spans

FIELDS = (("q", RATIONAL), ("zeta3", cyclotomic_field(3)), ("zeta4", cyclotomic_field(4)))
SCALAR_OPS = 400
SCALAR_REPS = 5
# size label -> the algebra whose antipode system is timed
LINALG_SYSTEMS = (("n16", "sweedler"), ("n81", "taft-3"), ("n256", "taft-4"))
LINALG_REPS = 3


def _random_scalar(rng, field):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.degree)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = Fraction(1)
    return Scalar(field, tuple(coeffs))


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scalar_metrics(seed: int) -> dict:
    """Per-operation microseconds for add, mul and inv in each field."""
    out = {}
    for label, field in FIELDS:
        rng = random.Random(f"{seed}:scalars:{label}")
        xs = [_random_scalar(rng, field) for _ in range(SCALAR_OPS)]
        ys = [_random_scalar(rng, field) for _ in range(SCALAR_OPS)]
        pairs = list(zip(xs, ys))
        ops = {
            "add": lambda: [x + y for x, y in pairs],
            "mul": lambda: [x * y for x, y in pairs],
            "inv": lambda: [x.inv() for x in xs],
        }
        for op, fn in ops.items():
            out[f"scalars.{op}_us.{label}"] = _median_time(fn, SCALAR_REPS) / SCALAR_OPS * 1e6
    return out


class _Captured(Exception):
    def __init__(self, matrix, rhs):
        super().__init__("antipode system captured")
        self.matrix, self.rhs = matrix, rhs


def antipode_system(seed: int, name: str):
    """The (matrix, rhs) that compute_antipode passes to solve for the
    seed-relabelled algebra; the capture stops it before it solves."""
    source = inputs.builtin_or_fixture(name)
    h = inputs.relabel(source, inputs.choose_relabelling(seed, name, source.dim))

    def capture(_solve):
        def solve_(matrix, rhs):
            raise _Captured(matrix, list(rhs))
        return solve_

    with spans.Patches() as patches:
        patches.replace("hopfcheck.linalg", "solve", capture)
        try:
            hopf.compute_antipode(h)
        except _Captured as got:
            return got.matrix, got.rhs
    raise RuntimeError(f"compute_antipode({name}) never called solve")


def linalg_metrics(seed: int) -> dict:
    out = {}
    for label, name in LINALG_SYSTEMS:
        m, rhs = antipode_system(seed, name)
        cases = {"matmul": lambda: m * m, "solve": lambda: solve(m, rhs)}
        for op, fn in cases.items():
            counts = {}
            with spans.Patches() as patches:
                spans.install_counters(patches, counts)
                fn()
            out[f"linalg.{op}_ms.{label}"] = _median_time(fn, LINALG_REPS) * 1e3
            out[f"linalg.{op}_scalar_ops.{label}"] = sum(counts[k] for k in ("mul", "add", "sub", "inv"))
    return out

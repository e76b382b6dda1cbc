"""Tracing from outside the program.

The traced pass wraps public functions and methods of each hopfcheck module
by rebinding the names in every module namespace that holds them, so calls
made through ``from .linalg import solve`` are seen too.  Each call becomes
a span (name, start, end, parent, job, note) kept in memory; self time is
computed afterwards as a span's duration minus the time its children cover.

The counted pass wraps scalar arithmetic with plain counters and no spans,
so the much larger call volume there does not inflate span self times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass


def _rows(m, *_args, **_kwargs):
    return m.rows


def _validate_miss(h, *_args, **_kwargs):
    return 1 if h._validation is None else 0


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module name or ``module:Class``.

    ``note`` maps the call arguments to a number kept with the span, such
    as the row count of a matrix argument.
    """

    owner: str
    attr: str
    span: str
    note: object = None


TRACED = (
    Target("hopfcheck.linalg", "solve", "linalg.solve", _rows),
    Target("hopfcheck.linalg", "nullspace", "linalg.nullspace", _rows),
    Target("hopfcheck.linalg", "invert", "linalg.invert", _rows),
    Target("hopfcheck.linalg:Matrix", "__mul__", "linalg.matmul", _rows),
    Target("hopfcheck.hopf", "compute_antipode", "hopf.compute_antipode"),
    Target("hopfcheck.hopf", "galois_maps", "hopf.galois_maps"),
    Target("hopfcheck.hopf:HopfAlgebra", "validate", "hopf.validate", _validate_miss),
    Target("hopfcheck.modular", "modular_data", "modular.modular_data"),
    Target("hopfcheck.modular", "modular_automorphism", "modular.modular_automorphism"),
    Target("hopfcheck.modular", "left_integral", "modular.left_integral"),
    Target("hopfcheck.modular", "right_integral", "modular.right_integral"),
    Target("hopfcheck.duality", "pair_system", "duality.pair_system"),
    Target("hopfcheck.duality", "build_dual", "duality.build_dual"),
    Target("hopfcheck.duality", "dual_integrals", "duality.dual_integrals"),
    Target("hopfcheck.duality:PairedSystem", "swapped", "duality.swapped"),
    Target("hopfcheck.verify", "run_all_checks", "verify.run_all_checks"),
    Target("hopfcheck.verify", "check_radford", "verify.check_radford"),
    Target("hopfcheck.verify", "check_dual_radford", "verify.check_dual_radford"),
    Target("hopfcheck.verify", "biduality_check", "verify.biduality_check"),
    Target("hopfcheck.verify", "check_modular_adjoints", "verify.check_modular_adjoints"),
    Target("hopfcheck.verify", "check_dual_modular_pairing", "verify.check_dual_modular_pairing"),
    Target("hopfcheck.identities", "evaluate", "identities.evaluate"),
    Target("hopfcheck.identities", "evaluate_side", "identities.evaluate_side"),
    Target("hopfcheck.identities", "parse_corpus", "identities.parse_corpus"),
    Target("hopfcheck.catalog", "read_algebra", "catalog.read_algebra"),
    Target("hopfcheck.catalog", "write_algebra", "catalog.write_algebra"),
    Target("hopfcheck.cli", "run", "cli.run"),
)

# Scalar operations counted in the counted pass; coerce is FieldSpec.scalar.
COUNTED = (
    ("hopfcheck.scalars:Scalar", "__mul__", "mul"),
    ("hopfcheck.scalars:Scalar", "__rmul__", "mul"),
    ("hopfcheck.scalars:Scalar", "__add__", "add"),
    ("hopfcheck.scalars:Scalar", "__radd__", "add"),
    ("hopfcheck.scalars:Scalar", "__sub__", "sub"),
    ("hopfcheck.scalars:Scalar", "__rsub__", "sub"),
    ("hopfcheck.scalars:Scalar", "inv", "inv"),
    ("hopfcheck.scalars:FieldSpec", "scalar", "coerce"),
)
COUNTED_OPS = ("mul", "add", "sub", "inv", "coerce")


class Patches:
    """Rebinds names and puts every original back on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, owner: str, attr: str, make):
        """Replace owner.attr by make(original) wherever it is bound."""
        module_name, _, cls_name = owner.partition(":")
        module = sys.modules[module_name]
        if cls_name:
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, make(original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hopfcheck" or name.startswith("hopfcheck.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, holder, key, value):
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()
        return False


class Tracer:
    """Span recorder for the traced pass.  ``job`` tags the spans of the
    job currently running.

    A span is stored once it ends, as a tuple of plain values, which the
    garbage collector stops tracking, so a long pass does not grow the set
    of objects every collection scans.
    """

    def __init__(self):
        self.job = None
        self._ended = []   # (index, name, start, end, parent, job, note)
        self._stack = []
        self._next = 0

    def wrap(self, name: str, fn, note=None):
        ended, stack, clock = self._ended, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            parent = stack[-1] if stack else -1
            value = note(*args, **kwargs) if note else None
            job = self.job
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended.append((idx, name, start, clock(), parent, job, value))
                stack.pop()
        return traced

    @property
    def spans(self):
        """Spans in start order as [name, start, end, parent, job, note];
        parent is an index into this list, -1 for a root."""
        return [list(rec[1:]) for rec in sorted(self._ended)]

    def install(self, patches: Patches, targets=TRACED):
        for t in targets:
            patches.replace(t.owner, t.attr,
                            lambda fn, t=t: self.wrap(t.span, fn, t.note))

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "note"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def install_counters(patches: Patches, counts: dict):
    """Count every scalar operation into counts[op] while patches hold."""
    for op in COUNTED_OPS:
        counts.setdefault(op, 0)
    for owner, attr, op in COUNTED:
        def make(fn, op=op):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[op] += 1
                return fn(*args, **kwargs)
            return counted
        patches.replace(owner, attr, make)


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover, clipped to the span."""
    children = {}
    for idx, rec in enumerate(spans):
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append(idx)
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    max_s: float = 0.0
    note_sum: float = 0
    note_max: float = 0


def aggregate(spans) -> dict:
    """Per span name: call count, total self time, longest single span,
    and the sum and maximum of the recorded notes."""
    stats = {}
    for rec, own in zip(spans, self_times(spans)):
        s = stats.setdefault(rec[0], SpanStats())
        s.calls += 1
        s.self_s += own
        s.max_s = max(s.max_s, rec[2] - rec[1])
        if rec[5] is not None:
            s.note_sum += rec[5]
            s.note_max = max(s.note_max, rec[5])
    return stats

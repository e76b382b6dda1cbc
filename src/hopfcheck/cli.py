"""Command-line interface.

Subcommands:
    verify-axioms  print the axiom validation report and the regularity check
    modular        print the integrals, modular element, automorphisms, tau
    dual           write the dual algebra to a file
    radford        run the identity suites up to the S^4 formula
    check          evaluate an identity corpus against the algebra
    example        write a builtin algebra file
    full-report    everything above in one deterministic report

Exit codes: 0 when every reported check passes, 1 when any check fails,
2 on input, parse, or usage errors.  All scalars print exactly (never as
decimals), so reports are stable regression fixtures.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .catalog import (GROUP_ORDER_LIMIT, AlgebraFileSemanticError,
                      AlgebraFileSyntaxError, GroupTableError, build_function_algebra,
                      build_group_algebra, build_sweedler, build_taft, cyclic_group,
                      algebra_text, read_algebra, read_group_table, symmetric_group,
                      write_algebra)
from .duality import build_dual, pair_system
from .hopf import HopfAlgebra, InvalidHopfAlgebraError, NotRegularError, _summed, galois_maps
from .identities import (DslLegError, DslLinearityError, DslSortError, DslSyntaxError,
                         evaluate_corpus, load_corpus, standard_corpus)
from .linalg import Matrix
from .modular import modular_data
from .verify import run_all_checks


ORDER_CAP = 1000


def matrix_order(m: Matrix):
    """Smallest k >= 1 with m^k = 1, or None if not found within ORDER_CAP:
    the lcm over basis vectors e_j of the least k with m^k e_j = e_j, each
    found by sparse steps e_j, m e_j, m^2 e_j, ...  A step c e_i on the way
    skips e_i, whose k divides e_j's: m^k e_i = m^t m^k e_j / c = e_i."""
    cols, order, skip = m.nonzero_columns(), 1, set()
    for j in (j for j in range(m.cols) if j not in skip):
        e_j = v = {j: m.field.one()}
        for k in range(1, ORDER_CAP + 1):
            v = _summed((i, y * x) for c, x in v.items() for i, y in cols[c])
            if v == e_j:
                break
            if len(v) == 1:
                skip.update(v)
        else:
            return None
        order = math.lcm(order, k)
    return order if order <= ORDER_CAP else None


def order_text(m: Matrix) -> str:
    """The order of m as printed in reports: the number, or "> cap" when
    no power up to the cap is the identity."""
    k = matrix_order(m)
    return f"> {ORDER_CAP}" if k is None else str(k)


def _matrix_text(label: str, m: Matrix) -> str:
    rows = []
    for row in m.nonzero_rows():
        entries = ["0"] * m.cols
        for j, x in row:
            entries[j] = str(x)
        rows.append("  [" + ", ".join(entries) + "]\n")
    return f"{label}:\n" + "".join(rows)


def _functional_str(coords) -> str:
    return "[" + ", ".join(str(c) for c in coords) + "]"


def _axiom_lines(report) -> str:
    """The text of h.validate()'s report: one "axiom " line per check."""
    return "".join(f"axiom {line}\n" for line in report.lines())


def axioms_text(h: HopfAlgebra) -> tuple[str, bool]:
    report = h.validate()
    text = _axiom_lines(report) + f"galois-regularity {h.name} "
    if not report.ok:
        return text + "SKIPPED (axioms failed)\n", False
    try:
        galois_maps(h)
    except NotRegularError as exc:
        return text + f"FAIL {exc}\n", False
    return text + "PASS\n", True


def modular_text(h: HopfAlgebra, md=None) -> str:
    md = md or modular_data(h)
    return "".join([
        f"algebra {h.name} dim {h.dim} field {h.field}\n",
        f"basis = [{', '.join(h.basis_names)}]\n",
        f"phi = {_functional_str(md.phi)}\n",
        f"psi = {_functional_str(md.psi)}\n",
        f"delta = {h.format_element(list(md.delta))}\n",
        f"delta_inv = {h.format_element(list(md.delta_inv))}\n",
        _matrix_text("sigma", md.sigma),
        _matrix_text("sigma_prime", md.sigma_prime),
        f"tau = {md.tau}\n",
        f"antipode order = {order_text(h.antipode)}\n",
        f"sigma order = {order_text(md.sigma)}\n",
        f"sigma_prime order = {order_text(md.sigma_prime)}\n"])


def _load_corpus_arg(corpus_path):
    """The identities of one file, or of every .ids file of a directory in
    name order.  A file without identities, a directory without .ids files
    and one identity name in two files are input errors."""
    if corpus_path is None:
        return standard_corpus()
    paths = [corpus_path]
    if os.path.isdir(corpus_path):
        paths = [os.path.join(corpus_path, name) for name in sorted(os.listdir(corpus_path))
                 if name.endswith(".ids")]
        if not paths:
            raise DslSyntaxError(f"{corpus_path}: no .ids files found")
    programs, origin = [], {}
    for path in paths:
        loaded = load_corpus(path)
        if not loaded:
            raise DslSyntaxError(f"{path}: no identities found")
        for prog in loaded:
            if prog.name in origin:
                raise DslSyntaxError(
                    f"identity {prog.name!r} is defined in both {origin[prog.name]} and {path}")
            origin[prog.name] = path
        programs.extend(loaded)
    return programs


def check_text(h: HopfAlgebra, programs, system=None) -> tuple[str, bool]:
    outcomes = evaluate_corpus(programs, system or pair_system(h))
    return "".join(o.line() + "\n" for o in outcomes), all(o.passed for o in outcomes)


def radford_text(h: HopfAlgebra, system=None) -> tuple[str, bool]:
    report = run_all_checks(system or pair_system(h))
    return "".join(line + "\n" for line in report.lines()), report.ok


def full_report_text(h: HopfAlgebra, programs=None) -> tuple[str, bool]:
    axioms, ok = axioms_text(h)
    out = [f"== axioms {h.name} ==\n", axioms]
    if ok:
        system = pair_system(h)
        out += [f"== modular data {h.name} ==\n", modular_text(h, system.primal_modular),
                f"== modular data {system.dual.name} ==\n",
                modular_text(system.dual, system.dual_modular), f"== identities {h.name} ==\n"]
        rad, rad_ok = radford_text(h, system)
        chk, chk_ok = check_text(h, standard_corpus() if programs is None else programs, system)
        ok = rad_ok and chk_ok
        out += [rad, f"== corpus {h.name} ==\n", chk,
                f"== summary {h.name} {'PASS' if ok else 'FAIL'} ==\n"]
    return "".join(out), ok


def _example_algebra(args) -> HopfAlgebra:
    kind = args.kind
    if kind == "sweedler":
        return build_sweedler()
    if kind == "taft":
        if args.n is None:
            raise GroupTableError("taft needs --n")
        if args.n > math.isqrt(GROUP_ORDER_LIMIT):
            # taft-n has dimension n^2; no group example may be larger
            raise GroupTableError(f"--n {args.n} gives dimension {args.n ** 2}, above the "
                                  f"limit of {GROUP_ORDER_LIMIT}")
        return build_taft(args.n)
    if kind in ("group-algebra", "function-algebra"):
        given = [x for x in (args.table, args.cyclic, args.symmetric) if x is not None]
        if len(given) != 1:
            raise GroupTableError(f"{kind} needs exactly one of --table/--cyclic/--symmetric")
        if args.table is not None:
            group = read_group_table(args.table)
            label = "table"
        elif args.cyclic is not None:
            group = cyclic_group(args.cyclic)
            label = f"z{args.cyclic}"
        else:
            group = symmetric_group(args.symmetric)
            label = f"s{args.symmetric}"
        builder = build_group_algebra if kind == "group-algebra" else build_function_algebra
        prefix = "group" if kind == "group-algebra" else "functions"
        return builder(group, f"{prefix}-{label}")
    raise GroupTableError(f"unknown example kind {kind!r}")


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="hopfcheck",
        description="exact verification of Hopf-algebra integral and duality identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("input", help="algebra file (.alg JSON)")
        return p

    with_input(sub.add_parser("verify-axioms", help="validate all axioms and regularity"))
    with_input(sub.add_parser("modular", help="print integrals and modular data"))
    p = with_input(sub.add_parser("dual", help="write the dual algebra"))
    p.add_argument("-o", "--output", required=True, help="output algebra file")
    with_input(sub.add_parser("radford", help="run the identity suites"))
    p = with_input(sub.add_parser("check", help="evaluate an identity corpus"))
    p.add_argument("--corpus", help="identity file or directory of .ids files")
    p = sub.add_parser("example", help="write a builtin algebra file")
    p.add_argument("kind", choices=["sweedler", "taft", "group-algebra", "function-algebra"])
    p.add_argument("--n", type=int, help="taft parameter (root of unity order)")
    p.add_argument("--table", help="group multiplication table JSON file")
    p.add_argument("--cyclic", type=int, help="use the cyclic group of this order")
    p.add_argument("--symmetric", type=int, help="use the symmetric group on this many symbols")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p = with_input(sub.add_parser("full-report", help="run everything"))
    p.add_argument("--corpus", help="identity file or directory of .ids files")
    return parser


def run(argv) -> tuple[int, str]:
    """Execute one invocation; returns (exit_code, report_text)."""
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), ""
    try:
        if args.command == "example":
            h = _example_algebra(args)
            if args.output:
                write_algebra(h, args.output)
                return 0, f"wrote {h.name} to {args.output}\n"
            return 0, algebra_text(h)

        h = read_algebra(args.input)
        if args.command == "verify-axioms":
            text, ok = axioms_text(h)
            return (0 if ok else 1), text
        if args.command == "dual":
            dual = build_dual(h)  # raises InvalidHopfAlgebraError for an invalid h
            write_algebra(dual, args.output)
            return 0, f"wrote {dual.name} to {args.output}\n"
        if args.command in ("modular", "radford", "check"):
            report = h.validate()
            if not report.ok:
                return 1, _axiom_lines(report)
        if args.command == "modular":
            return 0, modular_text(h)
        if args.command == "radford":
            text, ok = radford_text(h)
            return (0 if ok else 1), text
        if args.command in ("check", "full-report"):
            report = check_text if args.command == "check" else full_report_text
            text, ok = report(h, _load_corpus_arg(args.corpus))
            return (0 if ok else 1), text
        return 2, f"unknown command {args.command!r}\n"
    except InvalidHopfAlgebraError as exc:
        return 1, f"FAIL {exc}\n"
    except (AlgebraFileSyntaxError, AlgebraFileSemanticError, GroupTableError,
            DslSyntaxError, DslSortError, DslLegError, DslLinearityError, OSError,
            ValueError) as exc:
        return 2, f"error: {exc}\n"


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

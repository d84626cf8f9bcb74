"""Command line front end.

Inputs are builtin fixture names (``T3``, ``colored-chain:2``, ...) or
paths to structure/presentation files.  Exit codes: 0 success or PASS, 1 a
check failed (violations found), 2 input or usage error.  Output is
deterministic: same input and flags, same bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import AgeBasis, e_element, e_rank, power, search_zero_divisors
from .decomposition import canonical_decomposition, presentation_decomposition
from .fileformat import (
    BUILTIN_NAMES,
    FormatError,
    builtin,
    load_source,
    parse_structure,
    write_structure,
)
from .incidence import dump_matrix, inclusion_rank
from .presentations import LexSumPresentation, OMEGA
from .profiles import check_basic_inequality, check_monotone, profile_sequence
from .series import fit_rational, format_poly
from .structures import RelStruct
from .tournaments import classify


class InputError(Exception):
    pass


def _load(spec: str):
    if os.path.exists(spec):
        try:
            return load_source(spec)
        except (FormatError, ValueError) as exc:
            raise InputError(f"{spec}: {exc}") from exc
    name = spec.split(":", 1)[1] if spec.startswith("builtin:") else spec
    try:
        return builtin(name)
    except ValueError as exc:
        raise InputError(f"{spec!r} is neither a file nor a builtin ({exc})") from exc


def _source_label(spec, source):
    return getattr(source, "name", "") or spec


def _sequence(spec, args):
    source = _load(spec)
    max_n = args.max_n
    if isinstance(source, RelStruct):
        max_n = min(max_n, source.domain_size)
    return source, profile_sequence(source, max_n, name=_source_label(spec, source))


def _integers(flag, text):
    """The comma-separated integers of a flag's value."""
    values = []
    for entry in text.split(","):
        try:
            values.append(int(entry))
        except ValueError:
            raise InputError(f"{flag} entries must be integers, got {entry!r}") from None
    return tuple(values)


def cmd_profile(args) -> int:
    source, seq = _sequence(args.input, args)
    if args.format == "record":
        print(f"record profile source={seq.source} max-n={seq.window}")
        for n, value in enumerate(seq.coeffs):
            print(f"n={n} phi={value}")
    else:
        print("n\tphi")
        for n, value in enumerate(seq.coeffs):
            print(f"{n}\t{value}")
    return 0


def cmd_series(args) -> int:
    exponents = poly = None
    if args.denominator:
        exponents = _integers("--denominator", args.denominator)
    else:
        poly = _integers("--denominator-poly", args.denominator_poly)
    source, seq = _sequence(args.input, args)
    fit = fit_rational(seq, denominator_exponents=exponents, denominator_poly=poly)
    print(f"source={seq.source} window={seq.window}")
    print("phi=" + ",".join(str(v) for v in seq.coeffs))
    if not fit.success:
        print("FAIL residual-window=" + ",".join(str(r) for r in fit.residual_window))
        return 1
    print(f"numerator={format_poly(fit.numerator)}")
    print(f"form={fit.form}")
    return 0


def cmd_decompose(args) -> int:
    source = _load(args.input)
    if isinstance(source, RelStruct):
        decomp = canonical_decomposition(source)
    elif isinstance(source, LexSumPresentation):
        decomp = presentation_decomposition(source)
    else:
        raise InputError(
            "decompose expects a finite structure or a lexsum presentation"
        )
    print(f"source={_source_label(args.input, source)} blocks={len(decomp.blocks)}")
    for members, size in decomp.blocks:
        size_str = "omega" if size is OMEGA else str(size)
        print(f"block size={size_str} members={','.join(str(x) for x in members)}")
    return 0


def cmd_algebra(args) -> int:
    degree = args.max_degree
    if degree < 0:
        raise InputError("max-degree must be non-negative")
    source = _load(args.input)
    if isinstance(source, RelStruct):
        raise InputError("algebra checks expect a presentation source")
    label = _source_label(args.input, source)
    if args.check == "e-regular":
        basis = AgeBasis.build(source, degree + 1, name=label)
        failures = []
        for n in range(degree + 1):
            rank = e_rank(basis, n)
            ok = rank == basis.dimension(n)
            print(f"degree={n} rank={rank} dim={basis.dimension(n)} {'ok' if ok else 'VIOLATION'}")
            if not ok:
                failures.append(n)
        print(("PASS" if not failures else "FAIL") + f" e-regular max-degree={degree}")
        return 0 if not failures else 1
    if args.check == "zero-divisors":
        basis = AgeBasis.build(source, degree, name=label)
        report = search_zero_divisors(basis, degree)
        print(
            f"searched kernels={report.kernels_checked} pure-pairs={report.pure_pairs_checked} "
            f"random-probes={report.random_probes}"
        )
        if report.found:
            print("FAIL witness found")
            return 1
        print(f"PASS none found at degrees summing <= {degree}")
        return 0
    if args.check == "tournament-identity":
        basis = AgeBasis.build(source, degree, name=label)
        import math

        for n in range(1, degree + 1):
            en = power(basis, e_element(basis), n)
            expected = {
                (n, pos): math.factorial(n) for pos in range(basis.dimension(n))
            }
            if {k: v for k, v in en.coeffs} != expected:
                print(f"FAIL degree={n}")
                return 1
            print(f"degree={n} e^{n} = {n}! * (sum of all {basis.dimension(n)} types) ok")
        print(f"PASS tournament-identity max-degree={degree}")
        return 0
    raise InputError(f"unknown check {args.check!r}")


def cmd_incidence(args) -> int:
    m, n, k = args.m, args.n, args.k
    try:
        matrix, rank = inclusion_rank(m, n, k)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rows = len(matrix.row_labels)
    hypothesis = 2 * n + k <= m
    full = rank == rows
    if args.dump:
        text = dump_matrix(matrix, m, n, k)
        if args.dump == "-":
            sys.stdout.write(text)
        else:
            with open(args.dump, "w", encoding="utf-8") as handle:
                handle.write(text)
    print(
        f"m={m} n={n} k={k} rows={rows} cols={len(matrix.col_labels)} rank={rank} "
        f"{'FULL' if full else 'NOT-FULL'} hypothesis={'met' if hypothesis else 'unmet'}"
    )
    if hypothesis and not full:
        print("FAIL full row rank expected under the hypothesis")
        return 1
    return 0


def cmd_tournament(args) -> int:
    source = _load(args.input)
    report = classify(source)
    print(f"source={_source_label(args.input, source)}")
    print(f"classification={report.classification}")
    if report.degree is not None:
        print(f"degree={report.degree}")
    if report.acyclic_component_partition is not None:
        for component in report.acyclic_component_partition:
            print("component " + ",".join(str(v) for v in component))
    print(f"evidence: {report.evidence}")
    return 0


def cmd_check(args) -> int:
    source, seq = _sequence(args.input, args)
    basic = check_basic_inequality(seq)
    monotone = check_monotone(seq)
    print(f"source={seq.source} window={seq.window}")
    print(f"phi(n) <= (n+1)phi(n+1): {'ok' if basic.ok else 'VIOLATIONS ' + str(basic.violations)}")
    if monotone.applicable:
        print(f"non-decreasing: {'ok' if monotone.ok else 'VIOLATIONS ' + str(monotone.violations)}")
    else:
        print("non-decreasing: not applicable (finite source)")
    return 0 if basic.ok and (not monotone.applicable or monotone.ok) else 1


def cmd_show(args) -> int:
    with open(args.input, encoding="utf-8") as handle:
        text = handle.read()
    named = parse_structure(text)
    sys.stdout.write(write_structure(named))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relprof",
        description="profiles, series, decompositions and age algebras of relational structures",
        epilog="builtins: " + ", ".join(BUILTIN_NAMES),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile values as TSV")
    p.add_argument("input")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--format", choices=("tsv", "record"), default="tsv")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("series", help="fit the profile against a rational form")
    p.add_argument("input")
    p.add_argument("--max-n", type=int, default=10)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--denominator", help="exponents d1,d2,... for (1-x^d1)(1-x^d2)...")
    group.add_argument("--denominator-poly", help="denominator coefficients c0,c1,...")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("decompose", help="coarsest monomorphic decomposition")
    p.add_argument("input")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("algebra", help="age algebra checks")
    p.add_argument("input")
    p.add_argument("--check", choices=("e-regular", "zero-divisors", "tournament-identity"),
                   required=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("incidence", help="inclusion matrix rank report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dump", metavar="PATH", help="write the matrix ('-' for stdout)")
    p.set_defaults(func=cmd_incidence)

    p = sub.add_parser("tournament", help="growth dichotomy classification")
    p.add_argument("input")
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser("check", help="universal profile inequalities on a window")
    p.add_argument("input")
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("show", help="parse and re-emit a structure file")
    p.add_argument("input")
    p.set_defaults(func=cmd_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

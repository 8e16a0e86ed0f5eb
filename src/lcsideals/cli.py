"""Command-line front end.

Verbs cover dimension tables, containment reports, witnesses, PBW degrees,
membership tests, generator sets, identity verification, quotient series,
structure checks, the conjecture sweep, and the degree-6 open elements.

Exit codes: 0 success, 1 usage or parse error, 2 a verification-style check
failed.  Reports are JSON (canonical: sorted keys, rationals in lowest
terms) or CSV for dimension tables; every report carries n, the cutoff,
the tool version, and wall-clock time.  main stamps the start time and
each verb hands its result to emit() once, which alone builds that envelope;
refusals raise SystemExit(message), which main reports with exit code 1.

Each flag is declared only on the verbs that read it: --format on dims, the
one verb with a CSV form, and --force on the verbs with a size cap.  Index
tuples and integer flags are read by exprs.read_indices, so they take
ASCII digits only and no sign.  The series, containment and quotient
modules are imported by the verbs that use them, so a question loads only
what it asks: pbw-degree and verify-identities load none of them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .exprs import ExprDegreeError, ExprSyntaxError, count, parse_expr, poly_to_expr, read_indices
from .freealg import IDENTITY_NAMES, check_count, verify_identity
from .lyndon import pbw_degree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

HARD_DEGREE_CAP = 10
# the largest component the degree cap allows with n <= 3
HARD_SIZE_CAP = 3**HARD_DEGREE_CAP
# the words of the balanced block of A_5 at degree 8; the largest that the
# caps above allow is A_3 at degree 10, with 4200
HARD_BLOCK_CAP = 5040


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def emit(args, result, n=None, cutoff=None, csv_text: str | None = None) -> None:
    """Wrap result in the report envelope; write it, or csv_text if given,
    to stdout or --out."""
    wall = round(time.monotonic() - args.started, 6)
    report = {
        "meta": {
            "tool": "lcsideals",
            "version": __version__,
            "command": args.verb,
            "n": n,
            "cutoff": cutoff,
            "wall_time_seconds": wall,
        },
        "result": result,
    }
    text = canonical_json(report) if csv_text is None else csv_text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"{args.verb}: report written to {args.out} ({wall}s)")
    else:
        sys.stdout.write(text)


def _refuse_degree(degree: int) -> None:
    if degree > HARD_DEGREE_CAP:
        raise SystemExit(
            f"degree {degree} exceeds the safety cap {HARD_DEGREE_CAP}; "
            "pass --force to override"
        )


def _check_degree_cap(n: int, degree: int, force: bool) -> None:
    if force:
        return
    _refuse_degree(degree)
    if n ** max(degree, 0) > HARD_SIZE_CAP:
        raise SystemExit(
            f"component size {n}^{degree} exceeds the safety cap "
            f"3^{HARD_DEGREE_CAP}; pass --force to override"
        )


def _check_block_cap(n: int, degree: int, force: bool) -> None:
    """The caps of the verbs that ask only the balanced block of a degree
    (containment, witness, conjecture-sweep), in place of n^degree: the
    degree cap; n^⌈degree/2⌉, the entries of the rank tables that relabel
    the blocks beside it (series._rank_tables), and at least n, the entries
    of a content; and the words of that block."""
    check_count(n)
    if force:
        return
    _refuse_degree(degree)
    d = max(degree, 0)
    half = max(d - d // 2, 1)
    if n**half > HARD_SIZE_CAP:
        raise SystemExit(
            f"rank tables of {n}^{half} entries (n = {n}, degree {degree}) "
            f"exceed the safety cap 3^{HARD_DEGREE_CAP}; pass --force to override"
        )
    from .series import balanced_content, word_count

    words = word_count(balanced_content(n, d))
    if words > HARD_BLOCK_CAP:
        raise SystemExit(
            f"balanced block of {words} words (n = {n}, degree {degree}) exceeds "
            f"the safety cap {HARD_BLOCK_CAP}; pass --force to override"
        )


def _parse_capped(args):
    """args.expr parsed under the size caps: refused as soon as a product's
    words, as written, pass the largest degree the caps allow for args.n."""
    limit = None if args.force else max(
        d for d in range(HARD_DEGREE_CAP + 1) if args.n**d <= HARD_SIZE_CAP
    )
    try:
        return parse_expr(args.expr, args.n, max_degree=limit)
    except ExprDegreeError as exc:
        _check_degree_cap(args.n, exc.degree, force=False)  # past limit: refuses
        raise


def _check_least(flag: str, value: int, least: int) -> None:
    if value < least:  # a sweep that checks nothing is not a pass
        raise SystemExit(f"{flag} must be >= {least}, got {value}")


def cmd_dims(args) -> int:
    from .series import IdealSpec, dim_table

    _check_degree_cap(args.n, args.max_degree, args.force)
    specs = [IdealSpec.parse(s, args.n) for s in args.ideal]
    table = dim_table(specs, args.max_degree)
    csv_text = table.to_csv() if args.format == "csv" else None
    emit(args, table.to_json_obj(), args.n, args.max_degree, csv_text)
    return EXIT_OK


def cmd_containment(args) -> int:
    from .containment import containment_index, default_cutoff

    indices = read_indices(args.tuple)
    cutoff = args.cutoff if args.cutoff is not None else default_cutoff(indices)
    _check_block_cap(args.n, cutoff, args.force)
    report = containment_index(args.n, indices, cutoff)
    emit(args, report.to_json_obj(), n=args.n, cutoff=cutoff)
    return EXIT_OK


def cmd_witness(args) -> int:
    from .containment import bound_report, pbw_witness
    from .series import IdealSpec, spec_contains

    indices = read_indices(args.tuple)
    degree = sum(indices)  # capped before the witness, whose terms multiply per factor
    _check_block_cap(args.n, degree, args.force)
    w = pbw_witness(args.n, indices)
    target = bound_report(args.n, indices)[1] + 1
    inside = spec_contains(IdealSpec("M", args.n, index=target), w)
    result = {
        "witness_expr": poly_to_expr(w),
        "degree": degree,
        "pbw_factor_count": pbw_degree(w),
        "target_ideal": f"M{target}",
        "contained": inside,
    }
    emit(args, result, n=args.n, cutoff=degree)
    return EXIT_MISMATCH if inside else EXIT_OK


def cmd_pbw_degree(args) -> int:
    p = _parse_capped(args)
    if p.is_zero():
        raise SystemExit("zero element has no PBW degree")
    emit(args, {"expr": poly_to_expr(p), "pbw_degree": pbw_degree(p)}, n=args.n)
    return EXIT_OK


def cmd_membership(args) -> int:
    from .series import IdealSpec, spec_contains

    p = _parse_capped(args)
    spec = IdealSpec.parse(args.ideal, args.n)
    if spec.kind == "N":
        raise SystemExit("membership applies to L, M, or product ideals")
    if args.degree is None:
        # ideals are graded: p is a member iff each component is (zero has none)
        parts = p.homogeneous_components()
        degree = max(parts, default=None)
    else:
        degree = args.degree
        parts = {degree: p.homogeneous_component(degree)}
        if parts[degree] != p:
            print(
                f"note: testing the degree-{degree} homogeneous component",
                file=sys.stderr,
            )
    _check_degree_cap(args.n, degree or 0, args.force)
    per_degree = [
        {"degree": d, "contained": spec_contains(spec, c)}
        for d, c in parts.items()
    ]
    result = {
        "expr": poly_to_expr(p if args.degree is None else parts[degree]),
        "ideal": spec.label(),
        "degree": degree,
        "contained": all(r["contained"] for r in per_degree),
    }
    if args.degree is None:
        result["per_degree"] = per_degree
    emit(args, result, n=args.n, cutoff=degree)
    return EXIT_OK


def cmd_generators(args) -> int:
    from .series import SpanIdeal, generators_S, m_span

    _check_degree_cap(2, args.max_degree, args.force)
    gens = generators_S(args.index, args.max_degree)
    result: dict = {
        "index": args.index,
        "max_degree": args.max_degree,
        "count": len(gens),
        "generators": [poly_to_expr(g) for g in gens],
    }
    rows = []
    if args.verify:
        ideal = SpanIdeal(2, gens)
        for d in range(args.max_degree + 1):
            want, got = m_span(2, args.index, d), ideal.span(d)
            equal = want.dim == got.dim and got.is_subspace_of(want)
            rows.append(
                {"degree": d, "span_dim": got.dim, "ideal_dim": want.dim, "equal": equal}
            )
        result["verification"] = rows
    emit(args, result, n=2, cutoff=args.max_degree)
    return EXIT_OK if all(r["equal"] for r in rows) else EXIT_MISMATCH


def cmd_verify_identities(args) -> int:
    rows = [
        {"identity": name, "holds": verify_identity(name, args.n)}
        for name in IDENTITY_NAMES
    ]
    emit(args, rows, n=args.n)
    return EXIT_OK if all(r["holds"] for r in rows) else EXIT_MISMATCH


def cmd_quotient_dims(args) -> int:
    from .quotients import QuotientSpec, quotient_dim

    _check_degree_cap(args.n, args.max_degree, args.force)
    mod = read_indices(args.mod)
    if len(mod) != 2:
        raise SystemExit(f"expected 2 comma-separated indices, got {args.mod!r}")
    spec = QuotientSpec(args.n, *mod)
    rows = [
        {
            "series": args.series,
            "r": args.r,
            "degree": d,
            "dim": quotient_dim(spec, args.series, args.r, d),
        }
        for d in range(args.max_degree + 1)
    ]
    result = {"quotient": spec.label(), "rows": rows}
    emit(args, result, n=args.n, cutoff=args.max_degree)
    return EXIT_OK


def cmd_structure_check(args) -> int:
    from .quotients import QuotientSpec, quotient_dim, r23_structure_dims, structure_basis_r22

    n = args.n
    if args.which == "r23" and n != 2:  # the formula is stated on A_2 only
        raise SystemExit(f"structure-check r23 applies to n = 2, got --n {n}")
    _check_degree_cap(n, args.max_degree, args.force)
    degrees = range(args.max_degree + 1)
    if args.which == "r22":
        _check_least("--r-max", args.r_max, 2)
        spec, key = QuotientSpec(n, 2, 2), "basis_count"
        cells = [
            (r, d, structure_basis_r22(n, r, d))
            for r in range(2, args.r_max + 1)
            for d in degrees
        ]
    else:
        spec, key = QuotientSpec(n, 2, 3), "formula_dim"
        formula = r23_structure_dims(args.r, args.max_degree)
        cells = [(args.r, d, formula[d]) for d in degrees]
    rows = []
    for r, d, predicted in cells:
        computed = quotient_dim(spec, "N", r, d)
        rows.append(
            {
                "r": r,
                "degree": d,
                key: predicted,
                "computed_dim": computed,
                "equal": predicted == computed,
            }
        )
    result = {"quotient": spec.label(), "rows": rows}
    emit(args, result, n=n, cutoff=args.max_degree)
    return EXIT_OK if all(r["equal"] for r in rows) else EXIT_MISMATCH


def cmd_conjecture_sweep(args) -> int:
    from .containment import conjecture_2k_sweep, default_cutoff

    _check_least("--n-max", args.n_max, 2)
    _check_least("--k-max", args.k_max, 1)
    cap = default_cutoff((2,) * args.k_max) if args.cutoff is None else args.cutoff
    _check_block_cap(args.n_max, cap, args.force)
    rows = conjecture_2k_sweep(args.n_max, args.k_max, args.cutoff)
    emit(args, rows, n=args.n_max, cutoff=args.cutoff)
    return EXIT_OK


def cmd_open_elements(args) -> int:
    from .containment import check_open_elements

    rows = check_open_elements(args.cutoff)
    emit(args, rows, n=3, cutoff=args.cutoff)
    return EXIT_OK if all(r["contained"] for r in rows) else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsideals",
        description="Exact lower central series ideal computations over the rationals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("dims", help="dimension table for graded ideal pieces")
    p.add_argument("--n", type=count, required=True)
    p.add_argument(
        "--ideal",
        action="append",
        required=True,
        help="ideal spec like L2, M3, N2, or P2,2 (repeatable)",
    )
    p.add_argument("--max-degree", type=count, default=8)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("containment", help="containment index report for a tuple")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--tuple", required=True, help="comma-separated indices, each >= 2")
    p.add_argument("--cutoff", type=count)
    p.set_defaults(func=cmd_containment)

    p = sub.add_parser("witness", help="non-containment witness for a tuple")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--tuple", required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("pbw-degree", help="PBW filtration degree of an expression")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_pbw_degree)

    p = sub.add_parser("membership", help="graded ideal membership of an expression")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--ideal", required=True, help="L<k>, M<k>, or P<i1,i2,...>")
    p.add_argument("--degree", type=count)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("generators", help="generator set of an M-ideal on A_2")
    p.add_argument("--index", type=count, required=True)
    p.add_argument("--max-degree", type=count, required=True)
    p.add_argument("--verify", action="store_true", help="compare spans degreewise")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("verify-identities", help="check the built-in identities")
    p.add_argument("--n", type=count, default=3)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("quotient-dims", help="series dimensions inside R_{i,j}")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--mod", required=True, help="the two product indices, e.g. 2,3")
    p.add_argument("--series", choices=("L", "M", "N", "B"), required=True)
    p.add_argument("--r", type=count, required=True)
    p.add_argument("--max-degree", type=count, default=8)
    p.set_defaults(func=cmd_quotient_dims)

    p = sub.add_parser("structure-check", help="structure formulas vs computed dims")
    p.add_argument("--which", choices=("r22", "r23"), required=True)
    p.add_argument("--n", type=count, default=2)
    p.add_argument("--r", type=count, default=5, help="layer for r23")
    p.add_argument("--r-max", type=count, default=5, help="largest layer for r22")
    p.add_argument("--max-degree", type=count, default=7)
    p.set_defaults(func=cmd_structure_check)

    p = sub.add_parser("conjecture-sweep", help="observed vs conjectured (2,...,2)")
    p.add_argument("--n-max", type=count, default=3)
    p.add_argument("--k-max", type=count, default=2)
    p.add_argument("--cutoff", type=count)
    p.set_defaults(func=cmd_conjecture_sweep)

    p = sub.add_parser("open-elements", help="degree-6 membership checks in M_5(A_3)")
    p.add_argument("--cutoff", type=count, default=6)
    p.set_defaults(func=cmd_open_elements)

    # last, the flags that emit() and _check_degree_cap read; the two verbs
    # without a size cap take no --force
    for verb, p in sub.choices.items():
        p.add_argument("--out", help="write the report to this path")
        if verb not in ("verify-identities", "open-elements"):
            p.add_argument("--force", action="store_true", help="override safety caps")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.started = time.monotonic()
    try:
        return args.func(args)
    except (ExprSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        return exc.code if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

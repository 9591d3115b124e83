"""Command line interface.

Output goes to standard output as JSON with sorted keys (or CSV for the
tabular commands), with nothing time- or environment-dependent in it, so a
repeated invocation is byte-identical.  Usage problems exit with status 2;
a failed verification run exits with status 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .linearization import (
    _linearize,
    conjecture_sweep,
    inhomogeneous_gf,
    mixed_coefficient,
    mixed_residual,
)
from .maps import (
    RootedMap,
    connected_matching_tags,
    enumerate_rooted_maps,
    map_to_connected_matching,
    marked_word,
    tail_swap,
    tail_swap_inverse,
)
from .matchings import DEFAULT_CAP, Matching, WeightScheme
from .models import (
    associated_hermite,
    associated_hermite_matchings,
    associated_in_hermite_basis,
    chebyshev_limit,
    chebyshev_u,
    marker_edge_model,
    usual_hermite,
)
from .moments import inner_product, moment
from .polynomials import C, Poly, rising_factorial
from .tableaux import (
    OscillatingTableau,
    matching_to_tableau,
    tableau_to_matching,
    tableau_weight,
)
from .verification import run_all

GENERATORS = (
    "recurrence",
    "matchings",
    "marker-edge",
    "basis",
    "hermite",
    "chebyshev",
    "chebyshev-limit",
)

# H_n(x; c) costs roughly cubic time in n through Fraction arithmetic, so a
# command that runs its recurrence past this degree is refused, not left to
# run for many minutes.
_MAX_RECURRENCE_DEGREE = 450

BIJECTIONS = (
    "tableau",
    "tableau-inv",
    "tailswap",
    "tailswap-inv",
    "map-matching",
    "quadruples",
)


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _poly_rows(p: Poly, prefix: list | None = None) -> list[list]:
    head = prefix or []
    return [
        head + [t["xd"], t["cd"], t["num"], t["den"]]
        for t in p.to_json_obj()
    ]


def _cap(args: argparse.Namespace) -> int:
    cap = getattr(args, "cap", None)
    if cap is None:
        return DEFAULT_CAP
    if cap > DEFAULT_CAP:
        print(
            f"warning: cap {cap} exceeds the default {DEFAULT_CAP}; "
            "enumeration time grows faster than exponentially",
            file=sys.stderr,
        )
    return cap


def _check_recurrence_degree(n: int) -> None:
    if n > _MAX_RECURRENCE_DEGREE:
        raise ValueError(
            f"degree {n} exceeds {_MAX_RECURRENCE_DEGREE}, the largest the "
            "associated recurrence is run to"
        )


def _edge_texts(edges) -> list[str]:
    return [f"({a},{b})" for a, b in sorted(edges)]


def _cmd_poly(args: argparse.Namespace) -> int:
    n = args.degree
    cap = _cap(args)
    if args.generator in ("recurrence", "chebyshev-limit"):
        _check_recurrence_degree(n)
    if args.generator == "recurrence":
        p = associated_hermite(n)
    elif args.generator == "matchings":
        p = associated_hermite_matchings(n, cap=cap)
    elif args.generator == "marker-edge":
        p = marker_edge_model(n, cap=cap)
    elif args.generator == "basis":
        p = associated_in_hermite_basis(n)
    elif args.generator == "hermite":
        p = usual_hermite(n)
    elif args.generator == "chebyshev":
        p = chebyshev_u(n)
    else:
        p = chebyshev_limit(n)
    if args.shifted:
        p = p.shift_c()
    if args.csv:
        _emit_csv(["xd", "cd", "num", "den"], _poly_rows(p))
    else:
        _emit_json(p.to_json_obj())
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    if args.upto < 0:
        raise ValueError("--upto must be nonnegative")
    table = [moment(k) for k in range(args.upto + 1)]
    if args.shifted:
        table = [p.shift_c() for p in table]
    if args.csv:
        rows = [row for k, p in enumerate(table) for row in _poly_rows(p, [k])]
        _emit_csv(["n", "xd", "cd", "num", "den"], rows)
    else:
        _emit_json([p.to_json_obj() for p in table])
    return 0


def _cmd_orthogonality(args: argparse.Namespace) -> int:
    value = inner_product(args.n, args.m)
    expected = rising_factorial(C, args.n) if args.n == args.m else Poly.zero()
    _emit_json(
        {
            "n": args.n,
            "m": args.m,
            "value": value.to_json_obj(),
            "expected": expected.to_json_obj(),
            "match": value == expected,
        }
    )
    return 0


def _cmd_linearize(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    coefficients, lhs, rhs = _linearize(n, m)
    if args.csv:
        rows = [row for j, p in enumerate(coefficients) for row in _poly_rows(p, [j])]
        _emit_csv(["j", "xd", "cd", "num", "den"], rows)
        return 0
    _emit_json(
        {
            "n": n,
            "m": m,
            "terms": [
                {"j": j, "coefficient": p.to_json_obj()}
                for j, p in enumerate(coefficients)
            ],
            "lhs": lhs.to_json_obj(),
            "rhs": rhs.to_json_obj(),
            "match": lhs == rhs,
        }
    )
    return 0


def _cmd_mixed(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    _check_recurrence_degree(n + m)
    bound = min(m, (n + m) // 2)
    coefficients = [mixed_coefficient(n, m, k) for k in range(bound + 1)]
    lhs = associated_hermite(n) * usual_hermite(m)
    residual = mixed_residual(n, m)
    _emit_json(
        {
            "n": n,
            "m": m,
            "valid_range": n >= m - 1,
            "terms": [
                {"k": k, "coefficient": p.to_json_obj()}
                for k, p in enumerate(coefficients)
            ],
            "lhs": lhs.to_json_obj(),
            "rhs": (lhs - residual).to_json_obj(),
            "residual": residual.to_json_obj(),
            "match": residual.is_zero(),
        }
    )
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    if args.sum_max < 1:
        raise ValueError("--sum-max must be positive")
    reports = list(conjecture_sweep(args.sum_max, cap=_cap(args)))
    if args.csv:
        rows = [
            [",".join(str(s) for s in r.sizes), r.match, str(r.lhs), str(r.rhs)]
            for r in reports
        ]
        _emit_csv(["sizes", "match", "lhs", "rhs"], rows)
        return 0
    _emit_json(
        [
            {
                "sizes": list(r.sizes),
                "match": r.match,
                "lhs": r.lhs.to_json_obj(),
                "rhs": r.rhs.to_json_obj(),
            }
            for r in reports
        ]
    )
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise ValueError(f"sizes must be comma-separated integers, got {args.sizes!r}")
    scheme = WeightScheme(args.scheme)
    value = inhomogeneous_gf(sizes, scheme, cap=_cap(args))
    if args.csv:
        _emit_csv(["xd", "cd", "num", "den"], _poly_rows(value))
    else:
        _emit_json(
            {"sizes": list(sizes), "scheme": scheme.value, "value": value.to_json_obj()}
        )
    return 0


def _cmd_bijection(args: argparse.Namespace) -> int:
    op = args.operation
    if op == "tableau":
        t = matching_to_tableau(Matching.from_text(args.value))
        _emit_json(
            {
                "tableau": t.to_text(),
                "column_weight": tableau_weight(t, "column").to_json_obj(),
                "row_weight": tableau_weight(t, "row").to_json_obj(),
            }
        )
    elif op == "tableau-inv":
        t = OscillatingTableau.from_text(args.value)
        _emit_json({"matching": tableau_to_matching(t).to_text()})
    elif op == "tailswap":
        small, tags = tail_swap(Matching.from_text(args.value))
        _emit_json({"matching": small.to_text(), "tags": _edge_texts(tags)})
    elif op == "tailswap-inv":
        m = Matching.from_text(args.value)
        tags = Matching.from_text(args.tags, n=m.n).edges if args.tags else ()
        _emit_json({"matching": tail_swap_inverse(m, frozenset(tags)).to_text()})
    elif op == "map-matching":
        try:
            obj = json.loads(args.value)
        except json.JSONDecodeError as exc:
            raise ValueError(f"map argument is not JSON: {exc}")
        rm = RootedMap.from_json_obj(obj)
        cm = map_to_connected_matching(rm)
        _emit_json(
            {
                "matching": cm.to_text(),
                "word": list(marked_word(cm)),
                "tags": _edge_texts(connected_matching_tags(cm)),
                "weight": rm.weight().to_json_obj(),
            }
        )
    else:
        try:
            edge_count = int(args.value)
        except ValueError:
            raise ValueError(f"quadruples needs an edge count, got {args.value!r}")
        out = []
        for rm in enumerate_rooted_maps(edge_count):
            cm = map_to_connected_matching(rm)
            small, tags = tail_swap(cm)
            out.append(
                {
                    "map": rm.to_json_obj(),
                    "connected_matching": cm.to_text(),
                    "word": list(marked_word(cm)),
                    "matching": small.to_text(),
                    "tags": _edge_texts(tags),
                    "tableau": matching_to_tableau(small).to_text(),
                    "weight": rm.weight().to_json_obj(),
                }
            )
        _emit_json(out)
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    reports = run_all(args.level)
    if args.csv:
        _emit_csv(
            ["suite", "cases", "failures"],
            [[r.suite, r.cases, len(r.failures)] for r in reports],
        )
    else:
        _emit_json([r.to_json_obj() for r in reports])
    return 1 if any(r.failures for r in reports) else 0


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON output (the default)")
    group.add_argument("--csv", action="store_true", help="CSV output")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument(
        "--cap", type=int, default=None, metavar="N",
        help=f"enumeration size cap (default {DEFAULT_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="assoc-hermite",
        description="Exact combinatorics of associated Hermite polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "poly", parents=[fmt, capped],
        help="one polynomial from a chosen generator, as canonical JSON",
    )
    p.add_argument("generator", choices=GENERATORS)
    p.add_argument("degree", type=int)
    p.add_argument("--shifted", action="store_true", help="substitute c -> c+1")
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("moments", parents=[fmt], help="moment table 0..N")
    p.add_argument("--upto", type=int, required=True, metavar="N")
    p.add_argument("--shifted", action="store_true", help="substitute c -> c+1")
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("orthogonality", parents=[fmt], help="inner product of two polynomials")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_orthogonality)

    p = sub.add_parser("linearize", parents=[fmt], help="product expansion coefficients")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_linearize)

    p = sub.add_parser("mixed", parents=[fmt], help="expansion of an associated times a plain product")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_mixed)

    p = sub.add_parser("conjecture", parents=[fmt, capped], help="sweep the linearization conjecture")
    p.add_argument("--sum-max", type=int, required=True, metavar="S")
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("gf", parents=[fmt, capped], help="weighted inhomogeneous matchings on blocks")
    p.add_argument("sizes", help="comma-separated block sizes, e.g. 3,4,3")
    p.add_argument(
        "--scheme",
        choices=[s.value for s in WeightScheme],
        default=WeightScheme.MOMENT_NO_RIGHT_CROSSING.value,
    )
    p.set_defaults(handler=_cmd_gf)

    p = sub.add_parser("bijection", parents=[fmt], help="apply one of the bijections")
    p.add_argument("operation", choices=BIJECTIONS)
    p.add_argument("value", help="matching text, tableau text, map JSON, or edge count")
    p.add_argument("--tags", default="", help='tagged edges for tailswap-inv, e.g. "(2,4)"')
    p.set_defaults(handler=_cmd_bijection)

    p = sub.add_parser("verify-all", parents=[fmt], help="run the verification suites")
    p.add_argument("--level", choices=("desk", "extended"), default="desk")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.csv and args.command in ("orthogonality", "mixed", "bijection"):
        parser.error(f"csv output is not available for {args.command}")
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Output goes to standard output as JSON with sorted keys (or CSV for the
tabular commands), with nothing time- or environment-dependent in it, so a
repeated invocation is byte-identical.  Usage problems exit with status 2;
a failed verification run exits with status 1.

Every call runs in a fresh interpreter and pays for what this module
imports, so it imports at the top only the modules that several commands
share.  A module that one command needs is imported by that command:
`verification` by `verify-all`, `maps` and `tableaux` by `bijection`, and
`csv` by `--csv` output.  `poly hermite 3` loads none of them.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import LEVELS
from .linearization import _coefficients, _linearize, _mix, conjecture_sweep, inhomogeneous_gf
from .matchings import Blocks, Matching, WeightScheme
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

# Each command refuses sizes past its limit before doing any work.  Times at
# the limit were taken on Python 3.11, a shared 2-core x86 host, fresh
# interpreters, against a budget of 20 s and 500 MB.  The `poly` generators
# that do not enumerate walk the three-term recurrence forward on int rows,
# keeping two.  At 450, `chebyshev` and `hermite` take 0.3 s; `recurrence`,
# `chebyshev-limit` and `basis` 2.4-4.8 s, and `recurrence --shifted` 3.9-4.6 s
# (shift_c is a binomial transform on int rows); all peak at 40-81 MB.
# `linearize` and `mixed` cost about the 4.5th power of n + m, so their total
# stops where the worst split fits in the budget (`linearize 70 70`: 9.5-13.2 s;
# `mixed 60 80`: 6.9-9.3 s); `linearize --csv` builds only the coefficients
# (`70 70 --csv`: 0.9-1.3 s).  moment(k) enumerates Dyck paths (`moments --upto
# 20` and `orthogonality 10 10`: 7.7-10.9 s), and `conjecture` needs
# moment(sum_max) (`--sum-max 20`: 11.2-13.5 s).  `gf` sums block matchings
# by a recurrence that drops histories unable to close in time (80 blocks
# of 1 then one of 120: 0.2 s); at total 200 the worst found is `rightmost`
# on 75-80 blocks of 1, one of 60-65, then 60 of 1 (15-19.7 s, close to the
# budget), then 200 blocks of 1 (5.4-8.6 s); the moment schemes stay near 1 s.
# `quadruples` translates every rooted map (8,162 at 5 edges: 1.3-2.0 s,
# 46 MB).  The other bijections take one object of at most 300 edges; the
# slowest found, 0.15-0.22 s and 21 MB at most, are `tailswap` (quadratic,
# since each swap updates the crossing count it checks from the two edges
# that trade tails), `tableau` and `tableau-inv` on the all-crossing
# matching (i, i+300); `tailswap-inv` with its 300 edges tagged takes
# 0.11-0.14 s.  `poly matchings` and `marker-edge` sum by history
# recurrences; their times are beside them.  README points here.
_MAX_RECURRENCE_DEGREE = 450
_MAX_PRODUCT_DEGREE = 140
_MAX_MOMENT_INDEX = 20
_MAX_BLOCK_TOTAL = 200
_MAX_MAP_EDGES = 5
_MAX_BIJECTION_EDGES = 300

# Each `poly` generator and the largest degree it accepts.
GENERATORS = {
    "recurrence": (associated_hermite, _MAX_RECURRENCE_DEGREE),
    "matchings": (associated_hermite_matchings, 100),  # 9.8-11.3 s
    "marker-edge": (marker_edge_model, 300),  # 5.0-7.6 s; 5.7-8.1 s --shifted
    "basis": (associated_in_hermite_basis, _MAX_RECURRENCE_DEGREE),
    "hermite": (usual_hermite, _MAX_RECURRENCE_DEGREE),
    "chebyshev": (chebyshev_u, _MAX_RECURRENCE_DEGREE),
    "chebyshev-limit": (chebyshev_limit, _MAX_RECURRENCE_DEGREE),
}

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
    import csv  # only --csv output needs it; see the module docstring

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _poly_rows(p: Poly, prefix: list | None = None) -> list[list]:
    head = prefix or []
    return [
        head + [t["xd"], t["cd"], t["num"], t["den"]]
        for t in p.to_json_obj()
    ]


def _check_nonnegative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _check_size(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{what} {value} exceeds {cap}, the largest accepted")


def _edge_texts(edges) -> list[str]:
    return [f"({a},{b})" for a, b in sorted(edges)]


def _cmd_poly(args: argparse.Namespace) -> int:
    n = args.degree
    _check_nonnegative(degree=n)
    generate, limit = GENERATORS[args.generator]
    _check_size("degree", n, limit)
    p = generate(n)
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
    _check_size("moment index", args.upto, _MAX_MOMENT_INDEX)
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
    _check_nonnegative(n=args.n, m=args.m)
    _check_size("moment index n + m =", args.n + args.m, _MAX_MOMENT_INDEX)
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


def _expansion_record(
    n: int, m: int, index: str, coefficients: list[Poly], lhs: Poly, rhs: Poly
) -> dict:
    """The JSON record of an expanded product of degrees n and m: its
    coefficients numbered by `index`, both sides, and whether they agree."""
    return {
        "n": n,
        "m": m,
        "terms": [{index: i, "coefficient": p.to_json_obj()} for i, p in enumerate(coefficients)],
        "lhs": lhs.to_json_obj(),
        "rhs": rhs.to_json_obj(),
        "match": lhs == rhs,
    }


def _cmd_linearize(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    _check_nonnegative(n=n, m=m)
    _check_size("degree n + m =", n + m, _MAX_PRODUCT_DEGREE)
    if args.csv:
        # The CSV form prints only the coefficients, so it builds no product.
        rows = [row for j, p in enumerate(_coefficients(n, m)) for row in _poly_rows(p, [j])]
        _emit_csv(["j", "xd", "cd", "num", "den"], rows)
        return 0
    _emit_json(_expansion_record(n, m, "j", *_linearize(n, m)))
    return 0


def _cmd_mixed(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    _check_nonnegative(n=n, m=m)
    _check_size("degree n + m =", n + m, _MAX_PRODUCT_DEGREE)
    coefficients, lhs, rhs = _mix(n, m)
    record = _expansion_record(n, m, "k", coefficients, lhs, rhs)
    _emit_json({**record, "valid_range": n >= m - 1, "residual": (lhs - rhs).to_json_obj()})
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    if args.sum_max < 1:
        raise ValueError("--sum-max must be positive")
    _check_size("--sum-max", args.sum_max, _MAX_MOMENT_INDEX)
    reports = list(conjecture_sweep(args.sum_max))
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
    blocks = Blocks(sizes)
    _check_size("block total", blocks.total, _MAX_BLOCK_TOTAL)
    scheme = WeightScheme(args.scheme)
    value = inhomogeneous_gf(blocks.sizes, scheme)
    if args.csv:
        _emit_csv(["xd", "cd", "num", "den"], _poly_rows(value))
    else:
        _emit_json(
            {"sizes": list(sizes), "scheme": scheme.value, "value": value.to_json_obj()}
        )
    return 0


def _cmd_bijection(args: argparse.Namespace) -> int:
    op = args.operation
    if args.tags and op != "tailswap-inv":
        raise ValueError("--tags applies only to tailswap-inv")
    from . import maps, tableaux

    if op in ("tableau", "tailswap", "tailswap-inv"):
        m = Matching.from_text(args.value)
        _check_size("edge count", len(m.edges), _MAX_BIJECTION_EDGES)
    if op == "tableau":
        t = tableaux.matching_to_tableau(m)
        _emit_json(
            {
                "tableau": t.to_text(),
                "column_weight": tableaux.tableau_weight(t, "column").to_json_obj(),
                "row_weight": tableaux.tableau_weight(t, "row").to_json_obj(),
            }
        )
    elif op == "tableau-inv":
        t = tableaux.OscillatingTableau.from_text(args.value)
        _check_size("edge count", t.length // 2, _MAX_BIJECTION_EDGES)
        _emit_json({"matching": tableaux.tableau_to_matching(t).to_text()})
    elif op == "tailswap":
        small, tags = maps.tail_swap(m)
        _emit_json({"matching": small.to_text(), "tags": _edge_texts(tags)})
    elif op == "tailswap-inv":
        tags = Matching.from_text(args.tags, n=m.n).edges if args.tags else ()
        _emit_json({"matching": maps.tail_swap_inverse(m, frozenset(tags)).to_text()})
    elif op == "map-matching":
        # Text nested past the recursion limit raises RecursionError.
        try:
            obj = json.loads(args.value)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"map argument is not JSON: {exc}")
        rm = maps.RootedMap.from_json_obj(obj)
        _check_size("edge count", rm.edge_count, _MAX_BIJECTION_EDGES)
        cm = maps.map_to_connected_matching(rm)
        _emit_json(
            {
                "matching": cm.to_text(),
                "word": list(maps.marked_word(cm)),
                "tags": _edge_texts(maps.connected_matching_tags(cm)),
                "weight": rm.weight().to_json_obj(),
            }
        )
    else:
        try:
            edge_count = int(args.value)
        except ValueError:
            raise ValueError(f"quadruples needs an edge count, got {args.value!r}")
        _check_size("edge count", edge_count, _MAX_MAP_EDGES)
        out = []
        for rm in maps.enumerate_rooted_maps(edge_count):
            cm = maps.map_to_connected_matching(rm)
            small, tags = maps.tail_swap(cm)
            out.append(
                {
                    "map": rm.to_json_obj(),
                    "connected_matching": cm.to_text(),
                    "word": list(maps.marked_word(cm)),
                    "matching": small.to_text(),
                    "tags": _edge_texts(tags),
                    "tableau": tableaux.matching_to_tableau(small).to_text(),
                    "weight": rm.weight().to_json_obj(),
                }
            )
        _emit_json(out)
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    from . import verification

    reports = verification.run_all(args.level)
    if args.timings:
        for r in reports:
            print(json.dumps(r.to_json_obj(with_timing=True), sort_keys=True), file=sys.stderr)
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
    fmt.add_argument("--csv", action="store_true", help="CSV output instead of JSON")

    parser = argparse.ArgumentParser(
        prog="assoc-hermite",
        description="Exact combinatorics of associated Hermite polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "poly", parents=[fmt],
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

    p = sub.add_parser("orthogonality", help="inner product of two polynomials")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_orthogonality)

    p = sub.add_parser("linearize", parents=[fmt], help="product expansion coefficients")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_linearize)

    p = sub.add_parser("mixed", help="expansion of an associated times a plain product")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_mixed)

    p = sub.add_parser("conjecture", parents=[fmt], help="sweep the linearization conjecture")
    p.add_argument("--sum-max", type=int, required=True, metavar="S")
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("gf", parents=[fmt], help="weighted inhomogeneous matchings on blocks")
    p.add_argument("sizes", help="comma-separated block sizes, e.g. 3,4,3")
    p.add_argument(
        "--scheme",
        choices=[s.value for s in WeightScheme],
        default=WeightScheme.MOMENT_NO_RIGHT_CROSSING.value,
    )
    p.set_defaults(handler=_cmd_gf)

    p = sub.add_parser("bijection", help="apply one of the bijections")
    p.add_argument("operation", choices=BIJECTIONS)
    p.add_argument("value", help="matching text, tableau text, map JSON, or edge count")
    p.add_argument("--tags", default="", help='tagged edges, for tailswap-inv only, e.g. "(2,4)"')
    p.set_defaults(handler=_cmd_bijection)

    p = sub.add_parser("verify-all", parents=[fmt], help="run the verification suites")
    p.add_argument("--level", choices=LEVELS, default="desk")
    p.add_argument(
        "--timings", action="store_true",
        help="also write each suite's report with its seconds to standard error",
    )
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Case names and failure records of the verification suites.

A case's name is built only when the case fails.  The fault tests replace
a few of the names a suite imports with versions that go wrong on one
input, run the suite in this process, and compare its case count and
failure records string for string: the records a regression would print.
"""

import pytest

from assoc_hermite import verification
from assoc_hermite.linearization import conjecture_sweep
from assoc_hermite.maps import RootedMap, enumerate_rooted_maps, tail_swap
from assoc_hermite.matchings import Matching, WeightScheme, edge_stats, is_connected
from assoc_hermite.models import anchored_config_slots, chebyshev_rescaled_terms
from assoc_hermite.moments import PairedMatching, orthogonality_involution
from assoc_hermite.polynomials import C
from assoc_hermite.tableaux import tableau_to_matching, tableau_weight
from assoc_hermite.verification import Failure, RunReport


def wrong_at(original, bad_args, wrong):
    """original, except that the call with exactly these positional
    arguments returns wrong(original(*args)) instead."""

    def faulty(*args):
        value = original(*args)
        return wrong(value) if args == bad_args else value

    return faulty


def faulty_involution(pm):
    if pm == PairedMatching(1, 1, (), ((1, 2),)):
        return pm
    return orthogonality_involution(pm)


def faulty_tail_swap():
    """tail_swap, with the tags emptied on its second call with one
    connected matching on six vertices (that call comes from the inverse
    half of the suite)."""
    target = Matching.from_text("(1,4)(2,5)(3,6)")
    calls = []

    def faulty(m):
        small, tags = tail_swap(m)
        if m == target:
            calls.append(m)
            if len(calls) == 2:
                return small, frozenset()
        return small, tags

    return faulty


def faulty_rooted_maps(edge_count):
    """enumerate_rooted_maps, with the one-edge loop rooted at its second
    dart: the same map, but not in its canonical labelling."""
    loop = RootedMap((1, 0), (1, 0), 0)
    for rm in enumerate_rooted_maps(edge_count):
        yield RootedMap((1, 0), (1, 0), 1) if rm == loop else rm


def faulty_is_connected():
    """is_connected, false on its first and fourth calls with (1,3)(2,4):
    the traversal of the one-edge link and the inverse swap that builds
    that matching.  The calls between list the connected matchings on
    four vertices, for the traversals and for the tail swap."""
    target = Matching.from_text("(1,3)(2,4)")
    calls = []

    def faulty(m):
        if m == target:
            calls.append(m)
            if len(calls) in (1, 4):
                return False
        return is_connected(m)

    return faulty


def faulty_edge_stats(m, e):
    stats = edge_stats(m, e)
    if m == Matching.from_text("(1,4)(2,3)") and e == (2, 3):
        return type(stats)(False, *(getattr(stats, f) for f in type(stats)._fields[1:]))
    return stats


def faulty_tableau_weight(t, statistic="column"):
    w = tableau_weight(t, statistic)
    if statistic == "column" and t.to_text() == "-;1;11;1;-":
        return w * C
    return w


def faulty_tableau_to_matching(t):
    if t.to_text() == "-;1;11;1;-":
        return Matching.from_text("(1,2)(3,4)")
    return tableau_to_matching(t)


def faulty_conjecture_sweep(sum_max):
    for report in conjecture_sweep(sum_max):
        if report.sizes in ((1, 2, 3), (2, 2, 3, 3)):
            report = type(report)(report.sizes, not report.match, report.lhs, report.rhs)
        yield report


def faulty_rescaled_terms(n):
    terms = chebyshev_rescaled_terms(n)
    return {**terms, (0, 1): 1} if n == 3 else terms


def plus_one(p):
    return p + 1


def negated(p):
    return -p


FAULTS = {
    "suite_moment_tables": lambda v: {
        "moment_via_matchings": wrong_at(
            v.moment_via_matchings, (4, WeightScheme.MOMENT_NO_RIGHT_CROSSING), plus_one
        ),
    },
    "suite_orthogonality": lambda v: {
        "inner_product": wrong_at(v.inner_product, (2, 4), lambda p: p + C),
        "_paired_rows": wrong_at(v._paired_rows, ((3, 3),), plus_one),
    },
    "suite_involution": lambda v: {
        "orthogonality_involution": faulty_involution,
        "paired_weight": wrong_at(
            v.paired_weight, (PairedMatching(2, 2, (), ((1, 3), (2, 4))),), negated
        ),
    },
    "suite_linearization": lambda v: {
        "verify_linearization": wrong_at(v.verify_linearization, (2, 5), lambda ok: False),
        "linearization_coefficient": wrong_at(v.linearization_coefficient, (8, 8, 0), negated),
        "linearization_coefficient_hypergeometric": wrong_at(
            v.linearization_coefficient_hypergeometric, (3, 2, 1, 4), plus_one
        ),
        "inhomogeneous_gf": wrong_at(
            v.inhomogeneous_gf, ((3, 2, 3), WeightScheme.MOMENT_NONNESTED), plus_one
        ),
    },
    "suite_published_values": lambda v: {
        "inhomogeneous_gf": wrong_at(
            v.inhomogeneous_gf, ((4, 3, 3), WeightScheme.MOMENT_NONNESTED), plus_one
        ),
    },
    "suite_mixed": lambda v: {
        "verify_mixed": wrong_at(v.verify_mixed, (5, 3), lambda ok: False),
        "mixed_coefficient": wrong_at(v.mixed_coefficient, (3, 1, 2), lambda p: C),
    },
    "suite_polynomial_models": lambda v: {
        "associated_in_hermite_basis": wrong_at(v.associated_in_hermite_basis, (3,), plus_one),
        "associated_hermite_matchings": wrong_at(v.associated_hermite_matchings, (4,), negated),
        "marker_edge_model": wrong_at(v.marker_edge_model, (5,), plus_one),
        "anchored_config_gf": wrong_at(v.anchored_config_gf, (2,), negated),
        "anchored_config_slots": lambda cfg: (
            (9, 9) if cfg.matching.to_text() == "(1,3)(2,4)" else anchored_config_slots(cfg)
        ),
        "two_row_matching_gf": wrong_at(v.two_row_matching_gf, (3,), plus_one),
    },
    "suite_bijections": lambda v: {
        "tableau_weight": faulty_tableau_weight,
        "tableau_to_matching": faulty_tableau_to_matching,
        "edge_stats": faulty_edge_stats,
        "connected_matching_weight": wrong_at(
            v.connected_matching_weight, (Matching.from_text("(1,3)(2,4)"),), lambda p: p * C
        ),
        "tail_swap": faulty_tail_swap(),
        "enumerate_rooted_maps": faulty_rooted_maps,
        "is_connected": faulty_is_connected(),
    },
    "suite_chebyshev": lambda v: {
        "chebyshev_rescaled_terms": faulty_rescaled_terms,
        "chebyshev_u_matchings": wrong_at(v.chebyshev_u_matchings, (5,), plus_one),
    },
    "suite_conjecture": lambda v: {"conjecture_sweep": faulty_conjecture_sweep},
}

EXPECTED = {
    "suite_bijections": (7152, [
        ("tableau round trip (1,3)(2,4)", "(1,3)(2,4)", "(1,2)(3,4)"),
        ("column statistic of (1,3)(2,4)", "c^2", "c^3"),
        ("reverse round trip -;1;11;1;-", "-;1;11;1;-", "-;1;-;1;-"),
        ("label 2 leaves column one in (1,4)(2,3)", "False", "True"),
        (
            "traversal of {'rotation': [0, 1], 'pairing': [1, 0], 'root': 0} is connected",
            "True",
            "False",
        ),
        ("traversal weight of {'rotation': [0, 1], 'pairing': [1, 0], 'root': 0}", "c", "c^2"),
        (
            "canonical form is stable: {'rotation': [1, 0], 'pairing': [1, 0], 'root': 1}",
            "RootedMap(rotation=(1, 0), pairing=(1, 0), root=1)",
            "RootedMap(rotation=(1, 0), pairing=(1, 0), root=0)",
        ),
        ("inverse swap of (1,2) [(1, 2)] connects", "True", "False"),
        (
            "inverse round trip (1,3)(2,4) [(1, 3), (2, 4)]",
            "(Matching(n=4, edges=((1, 3), (2, 4))), frozenset({(2, 4), (1, 3)}))",
            "(Matching(n=4, edges=((1, 3), (2, 4))), frozenset())",
        ),
    ]),
    "suite_chebyshev": (27, [
        ("rescaled exponents stay nonpositive at degree 3", "True", "False"),
        ("adjacent-edge matchings at degree 5", "x^5 - 4x^3 + 3x", "x^5 - 4x^3 + 3x + 1"),
    ]),
    "suite_conjecture": (155, [
        ("conjecture at block sizes (1, 2, 3)", "True", "False"),
        ("sides separate at block sizes (2, 2, 3, 3)", "True", "False"),
    ]),
    "suite_involution": (20780, [
        ("involution moves PairedMatching(n=1, m=1, black=(), green=((1, 2),))", "True", "False"),
        (
            "involution negates weight of PairedMatching(n=1, m=1, black=(), green=((1, 2),))",
            "-c",
            "c",
        ),
        ("fixed points of (1,1) are the 1! permutations", "[(1,)]", "[]"),
        (
            "fixed point weight: PairedMatching(n=2, m=2, black=(), green=((1, 3), (2, 4)))",
            "c",
            "-c",
        ),
    ]),
    "suite_linearization": (2114, [
        ("linearization identity (2,5)", "True", "False"),
        ("coefficient (8,8,0) is a nonnegative integer polynomial in c", "True", "False"),
        ("hypergeometric form (3,2,1) at c=4", "9", "10"),
        ("coefficient (8,8,0) at c=1", "1", "-1"),
        ("three-block matchings (3,2,3)", "36", "37"),
    ]),
    "suite_mixed": (165, [
        ("mixed term (3,1,2) beyond the range vanishes", "True", "False"),
        ("mixed identity (5,3)", "True", "False"),
    ]),
    "suite_moment_tables": (54, [
        ("mu_4 via no-right-crossing matchings", "2c^2 + c", "2c^2 + c + 1"),
    ]),
    "suite_orthogonality": (147, [
        ("inner product (2,4)", "0", "c"),
        ("paired matching sum (3,3)", "c^3 + 3c^2 + 2c", "c^3 + 3c^2 + 2c + 1"),
    ]),
    "suite_polynomial_models": (82, [
        ("basis expansion degree 3", "x^3 - 2xc - 3x", "x^3 - 2xc - 3x + 1"),
        (
            "matchings model degree 4",
            "x^4 - 3x^2c - 3x^2 + c^2 + 2c",
            "-x^4 + 3x^2c + 3x^2 - c^2 - 2c",
        ),
        (
            "marker-edge model degree 5",
            "x^5 - 4x^3c - 10x^3 + 3xc^2 + 15xc + 15x",
            "x^5 - 4x^3c - 10x^3 + 3xc^2 + 15xc + 15x + 1",
        ),
        ("anchored configurations on 4 vertices", "c^2 + c", "-c^2 - c"),
        ("insertion slots of (1,3)(2,4)", "(2, 1)", "(9, 9)"),
        ("two-row matchings on [3]+[3]", "c^2 + 3c + 2", "c^2 + 3c + 3"),
    ]),
    "suite_published_values": (10, [
        (
            "nonnested blocks (4, 3, 3)",
            "3c^5 + 24c^4 + 69c^3 + 84c^2 + 36c",
            "3c^5 + 24c^4 + 69c^3 + 84c^2 + 36c + 1",
        ),
    ]),
}


@pytest.mark.parametrize("suite", sorted(FAULTS))
def test_injected_faults_give_pinned_failure_records(monkeypatch, suite):
    for name, faulty in FAULTS[suite](verification).items():
        monkeypatch.setattr(verification, name, faulty)
    report = getattr(verification, suite)()
    records = [(f.case, f.expected, f.actual) for f in report.failures]
    assert (report.cases, records) == EXPECTED[suite]


class Unprintable:
    """A value that fails whenever anything tries to print it."""

    def __repr__(self):
        raise AssertionError("formatted a passing case")

    __str__ = __format__ = __repr__


def test_passing_cases_format_nothing():
    bomb = Unprintable()
    report = RunReport("suite")
    report.check("value {}", bomb, bomb, bomb)
    report.ensure("value {} holds", True, bomb)
    assert (report.cases, report.failures) == (2, [])


def test_failing_cases_build_their_names():
    report = RunReport("suite")
    report.check("mu_{} via {}", 1, 2, 4, "paths")
    report.ensure("block sizes {}", False, (1, 2))
    report.ensure("braces {} stay without arguments", 0)
    assert report.failures == [
        Failure("mu_4 via paths", "2", "1"),
        Failure("block sizes (1, 2)", "True", "False"),
        Failure("braces {} stay without arguments", "True", "False"),
    ]
    assert report.cases == 3

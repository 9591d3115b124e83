"""Exhaustive desk-scale verification suites.

Every identity the library implements is checked here with exact
arithmetic, by brute-force enumeration or, for sums over matchings that a
history recurrence covers, by that recurrence, which the tests check
against enumeration: the block-matching sums and the moments as matching
sums (`_history._histories`), the paired-matching sums
(`_history._paired_rows`), and the partial-matching and marker-edge models
of the polynomials (`_history._partial_matchings` and
`_history._marker_edge`).  Each suite returns a RunReport that lists how
many cases ran and which failed.  A case's name is a string, or a format
string with arguments that is formatted only when the case fails, so
passing cases cost no formatting.  `run_all` runs each of a level's
suites in a forked worker of its own, longest first, as many at once as
there are available CPUs; each worker sends its pickled report back on a
pipe of its own.
The desk level finishes in seconds; the extended level adds the four-edge
rooted-map census.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import suppress
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator

from . import LEVELS
from ._history import _paired_rows
from .linearization import (
    conjecture_sweep,
    inhomogeneous_gf,
    linearization_coefficient,
    linearization_coefficient_hypergeometric,
    mixed_coefficient,
    mixed_residual,
    product_functional,
    verify_linearization,
    verify_mixed,
)
from .maps import (
    RootedMap,
    connected_matching_tags,
    connected_matching_weight,
    enumerate_rooted_maps,
    map_to_connected_matching,
    marked_word,
    tail_swap,
    tail_swap_inverse,
)
from .matchings import (
    MOMENT_SCHEMES,
    Matching,
    WeightScheme,
    _Record,
    edge_stats,
    enumerate_complete,
    is_connected,
    nonnested_edges,
    weight,
)
from .models import (
    anchored_config_gf,
    anchored_config_slots,
    associated_hermite,
    associated_hermite_matchings,
    associated_in_hermite_basis,
    chebyshev_limit,
    chebyshev_rescaled_terms,
    chebyshev_u,
    chebyshev_u_matchings,
    enumerate_anchored_configs,
    marker_edge_model,
    two_row_matching_gf,
)
from .moments import (
    PairedMatching,
    cycle_count,
    enumerate_paired,
    flip_candidate,
    inner_product,
    left_to_right_maxima,
    moment,
    moment_series,
    moment_via_matchings,
    orthogonality_involution,
    paired_to_permutation,
    paired_weight,
)
from .polynomials import C, Poly, _gf, rising_factorial, rising_factorial_value
from .tableaux import (
    OscillatingTableau,
    _edge_labels,
    _label_depths,
    enumerate_tableaux,
    forward_fillings,
    matching_to_tableau,
    tableau_to_matching,
    tableau_weight,
)


def _case_name(case: str, args: tuple) -> str:
    return case.format(*args) if args else case


class Failure(_Record):
    case: str
    expected: str
    actual: str

    def to_json_obj(self) -> dict:
        return {"case": self.case, "expected": self.expected, "actual": self.actual}


class RunReport:
    """Outcome of one verification suite, which records each case into it."""

    def __init__(self, suite: str):
        self.suite = suite
        self.cases = 0
        self.failures: list[Failure] = []
        self.seconds = 0.0
        self.start = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, case: str, actual, expected, *args) -> None:
        """Count one case, failed when actual != expected.  Its name is
        case.format(*args) when args are given and case otherwise, built
        only on failure."""
        self.cases += 1
        if actual != expected:
            self.failures.append(Failure(_case_name(case, args), str(expected), str(actual)))

    def ensure(self, case: str, condition: bool, *args) -> None:
        """Count one case, failed when condition is false; named as in check."""
        self.cases += 1
        if not condition:
            self.failures.append(Failure(_case_name(case, args), "True", "False"))

    def to_json_obj(self, with_timing: bool = False) -> dict:
        obj = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [f.to_json_obj() for f in self.failures],
        }
        if with_timing:
            obj["seconds"] = round(self.seconds, 3)
            obj["start"] = round(self.start, 3)
        return obj


Suite = Callable[[], RunReport]  # a suite runs its cases and returns their report


def _suite(name: str) -> Callable[[Callable[[RunReport], None]], Suite]:
    """Decorate a function that records its cases into a report: the suite
    makes the report, times the call and returns the report, whose name is
    also the suite's `suite` attribute.  An exception raised inside the
    body becomes one more failed case, after the cases recorded before it,
    so the other suites still run and report."""

    def wrap(body: Callable[[RunReport], None]) -> Suite:
        @functools.wraps(body)
        def run() -> RunReport:
            rec = RunReport(name)
            start = time.perf_counter()
            try:
                body(rec)
            except Exception as exc:
                rec.check("uncaught exception", f"{type(exc).__name__}: {exc}", "no exception")
            rec.seconds = time.perf_counter() - start
            return rec

        run.suite = name
        return run

    return wrap


@_suite("moment tables")
def suite_moment_tables(rec: RunReport) -> None:
    """Moments agree across the recursion, both matching statistics, and
    the continued fraction, and match the small closed forms."""
    rec.check("mu_0", moment(0), Poly.one())
    rec.check("mu_2", moment(2), C)
    rec.check("mu_4", moment(4), 2 * C**2 + C)
    rec.check("mu_6", moment(6), 5 * C**3 + 7 * C**2 + 3 * C)
    rec.check("mu_2 shifted", moment(2).shift_c(), C + 1)
    rec.check("mu_4 shifted", moment(4).shift_c(), 2 * C**2 + 5 * C + 3)
    rec.check(
        "mu_6 shifted",
        moment(6).shift_c(),
        5 * C**3 + 22 * C**2 + 32 * C + 15,
    )
    order = 12
    plain = moment_series(order // 2 + 1, order, shifted=False)
    shifted = moment_series(order // 2 + 1, order, shifted=True)
    for n in range(order + 1):
        mu = moment(n)
        if n % 2:
            rec.check("mu_{} vanishes", mu, Poly.zero(), n)
            rec.check("series coefficient t^{}", plain[n], Poly.zero(), n)
            continue
        for scheme in MOMENT_SCHEMES:
            rec.check(
                "mu_{} via {} matchings",
                moment_via_matchings(n, scheme),
                mu,
                n, scheme.value,
            )
        rec.check("mu_{} via continued fraction", plain[n], mu, n)
        rec.check(
            "mu_{} shifted via continued fraction",
            shifted[n],
            mu.shift_c(),
            n,
        )


@_suite("orthogonality")
def suite_orthogonality(rec: RunReport) -> None:
    """The moment functional kills off-diagonal products and sends the
    diagonal to a rising factorial; paired matchings sum to the same."""
    for n in range(9):
        for m in range(9):
            expected = rising_factorial(C, n) if n == m else Poly.zero()
            rec.check("inner product ({},{})", inner_product(n, m), expected, n, m)
    for n in range(11):
        for m in range(11 - n):
            total = _paired_rows((n, m))
            expected = rising_factorial(C, n) if n == m else Poly.zero()
            rec.check("paired matching sum ({},{})", total, expected, n, m)


@_suite("involution")
def suite_involution(rec: RunReport) -> None:
    """The recoloring involution has fixed points only on the diagonal,
    where they read as permutations.  Weight negation needs the bigger
    block on the left (n >= m): with the blocks the other way around a
    spanning cross-block edge can cut across the flipped edge from the
    left, and the flip then changes the magnitude of the weight, not just
    its sign.  The sums still cancel; only the pointwise pairing breaks."""
    for n in range(9):
        for m in range(9 - n):
            # Each image and, where negation is claimed, each weight is
            # computed once per matching and looked up for its partner.
            paired = list(enumerate_paired(n, m))
            images = {}
            for pm in paired:
                with suppress(ValueError):  # no edge to flip: a fixed point
                    images[pm] = orthogonality_involution(pm)
            weights = {pm: paired_weight(pm) for pm in paired} if n >= m else {}
            fixed_perms = []
            for pm in paired:
                if pm not in images:
                    rec.ensure("fixed point only on diagonal: {}", n == m, pm)
                    rec.check("fixed point all green: {}", pm.black, (), pm)
                    pi = paired_to_permutation(pm)
                    rec.check(
                        "fixed point weight: {}",
                        paired_weight(pm),
                        Poly.monomial(0, left_to_right_maxima(pi)),
                        pm,
                    )
                    fixed_perms.append(pi)
                    continue
                image = images[pm]
                rec.ensure("involution moves {}", image != pm, pm)
                rec.check("involution order two on {}", images.get(image), pm, pm)
                if n >= m:
                    rec.check("involution negates weight of {}",
                              weights.get(image), -weights[pm], pm)
            if n == m:
                rec.check(
                    "fixed points of ({},{}) are the {}! permutations",
                    sorted(fixed_perms),
                    sorted(itertools.permutations(range(1, n + 1))),
                    n, n, n,
                )
    for n in range(7):
        perms = list(itertools.permutations(range(1, n + 1)))
        by_lrm = _gf(perms, lambda pi: Poly.monomial(0, left_to_right_maxima(pi)))
        by_cycles = _gf(perms, lambda pi: Poly.monomial(0, cycle_count(pi)))
        rec.check("sum of c^lrm over S_{}", by_lrm, rising_factorial(C, n), n)
        rec.check("sum of c^cycles over S_{}", by_cycles, rising_factorial(C, n), n)

    # Pinned witness for the n >= m restriction: with the single-vertex
    # block on the left, flipping (2,5) sends weight +c to -c^2.
    pm = PairedMatching(1, 5, (), ((1, 3), (2, 5), (4, 6)))
    rec.check("n < m witness weight", paired_weight(pm), Poly.monomial(0, 1))
    rec.check("n < m witness flips (2,5)", flip_candidate(pm), (2, 5))
    rec.check("n < m witness image weight",
              paired_weight(orthogonality_involution(pm)),
              -Poly.monomial(0, 2))


@_suite("linearization")
def suite_linearization(rec: RunReport) -> None:
    """Product expansion coefficients: the identity itself, integrality and
    nonnegativity, the hypergeometric form, and the c = 1 specialization
    counted by three-block matchings."""
    for big_n in range(7):
        for big_m in range(7):
            rec.ensure(
                "linearization identity ({},{})",
                verify_linearization(big_n, big_m),
                big_n, big_m,
            )
    coefficients = {
        (big_n, big_m, j): linearization_coefficient(big_n, big_m, j)
        for big_n in range(9)
        for big_m in range(9)
        for j in range(min(big_n, big_m) + 1)
    }
    for (big_n, big_m, j), p in coefficients.items():
        rec.ensure(
            "coefficient ({},{},{}) is a nonnegative integer polynomial in c",
            all(
                xd == 0 and q.denominator == 1 and q >= 0
                for (xd, cd), q in p.terms.items()
            ),
            big_n, big_m, j,
        )
    for big_n in range(7):
        for big_m in range(7):
            for j in range(min(big_n, big_m) + 1):
                p = coefficients[big_n, big_m, j]
                for cv in range(1, 11):
                    rec.check(
                        "hypergeometric form ({},{},{}) at c={}",
                        linearization_coefficient_hypergeometric(
                            big_n, big_m, j, Fraction(cv)
                        ),
                        p.evaluate(c_value=cv),
                        big_n, big_m, j, cv,
                    )
    for (big_n, big_m, j), p in coefficients.items():
        closed = (
            rising_factorial_value(big_n + 1 - j, j)
            * rising_factorial_value(big_m + 1 - j, j)
            / factorial(j)
        )
        rec.check("coefficient ({},{},{}) at c=1", p.evaluate(c_value=1), closed, big_n, big_m, j)
    for big_n in range(9):
        for big_m in range(9 - big_n):
            for j in range(min(big_n, big_m) + 1):
                rest = big_n + big_m - 2 * j
                count = inhomogeneous_gf(
                    (big_n, big_m, rest), WeightScheme.MOMENT_NONNESTED
                ).evaluate(c_value=1)
                rec.check(
                    "three-block matchings ({},{},{})",
                    count,
                    coefficients[big_n, big_m, j].evaluate(c_value=1) * factorial(rest),
                    big_n, big_m, rest,
                )


@_suite("published values")
def suite_published_values(rec: RunReport) -> None:
    """Frozen closed forms for small products of the polynomials."""
    cube = C**3 + 4 * C**2 + 3 * C
    rec.check("functional of the cubed quadratic", product_functional((2, 2, 2)), cube)
    rec.check(
        "no-right-crossing blocks (2,2,2)",
        inhomogeneous_gf((2, 2, 2), WeightScheme.MOMENT_NO_RIGHT_CROSSING),
        cube,
    )
    rec.check(
        "nonnested blocks (2,2,2)",
        inhomogeneous_gf((2, 2, 2), WeightScheme.MOMENT_NONNESTED),
        2 * C**3 + 4 * C**2 + 2 * C,
    )
    value_334 = C * (C + 1) * (C + 2) * (C + 3) * (C + 8)
    rec.check("functional of the (3,3,4) product", product_functional((3, 3, 4)), value_334)
    rec.check(
        "no-right-crossing blocks (3,3,4)",
        inhomogeneous_gf((3, 3, 4), WeightScheme.MOMENT_NO_RIGHT_CROSSING),
        value_334,
    )
    rec.check(
        "no-right-crossing blocks (3,4,3)",
        inhomogeneous_gf((3, 4, 3), WeightScheme.MOMENT_NO_RIGHT_CROSSING),
        C * (C + 1) * (C + 2) * (C**2 + 7 * C + 28),
    )
    rec.check(
        "no-right-crossing blocks (4,3,3)",
        inhomogeneous_gf((4, 3, 3), WeightScheme.MOMENT_NO_RIGHT_CROSSING),
        C * (C + 1) * (C + 2) * (C**2 + 8 * C + 27),
    )
    rec.check(
        "nonnested blocks (3,4,3)",
        inhomogeneous_gf((3, 4, 3), WeightScheme.MOMENT_NONNESTED),
        6 * C * (C + 1) ** 2 * (C + 2) ** 2,
    )
    for sizes in ((3, 3, 4), (4, 3, 3)):
        rec.check(
            "nonnested blocks {}",
            inhomogeneous_gf(sizes, WeightScheme.MOMENT_NONNESTED),
            3 * C * (C + 1) * (C + 2) ** 2 * (C + 3),
            sizes,
        )


@_suite("mixed products")
def suite_mixed(rec: RunReport) -> None:
    """Expansion of an associated polynomial times a plain Hermite one,
    valid whenever the first index is at least the second minus one."""
    for n in range(9):
        for m in range(n + 2):
            rec.ensure("mixed identity ({},{})", verify_mixed(n, m), n, m)
            bound = min(m, (n + m) // 2)
            for k in (bound + 1, bound + 2):
                rec.ensure(
                    "mixed term ({},{},{}) beyond the range vanishes",
                    mixed_coefficient(n, m, k).is_zero() or n + m - 2 * k < 0,
                    n, m, k,
                )
    rec.check("mixed residual (0,2)", mixed_residual(0, 2), Poly.one() - C)
    rec.ensure("mixed identity fails at (0,2)", not verify_mixed(0, 2))
    rec.ensure("mixed identity fails at (1,3)", not verify_mixed(1, 3))


@_suite("polynomial models")
def suite_polynomial_models(rec: RunReport) -> None:
    """The shifted polynomials expand over the plain Hermite basis with
    anchored-configuration coefficients; the partial-matching and
    marker-edge models and the two-row matchings generate what they
    should."""
    for n in range(11):
        rec.check(
            "basis expansion degree {}",
            associated_in_hermite_basis(n),
            associated_hermite(n).shift_c(),
            n,
        )
        rec.check(
            "matchings model degree {}",
            associated_hermite_matchings(n),
            associated_hermite(n),
            n,
        )
    for n in range(9):
        rec.check(
            "marker-edge model degree {}",
            marker_edge_model(n),
            associated_hermite(n).shift_c(),
            n,
        )
    for k in range(5):
        sign = -1 if k % 2 else 1
        rec.check(
            "anchored configurations on {} vertices",
            anchored_config_gf(k),
            sign * rising_factorial(C, k),
            2 * k,
        )
        for cfg in enumerate_anchored_configs(k):
            rec.check(
                "insertion slots of {}",
                anchored_config_slots(cfg),
                (k, 1),
                cfg.matching,
            )
    for n in range(1, 7):
        expected = rising_factorial(C + 1, n - 1)
        rec.check("two-row matchings on [{}]+[{}]", two_row_matching_gf(n), expected, n, n)
        total = _gf(
            itertools.permutations(range(1, n + 1)),
            lambda pi: Poly.monomial(0, left_to_right_maxima(pi) - 1),
        )
        rec.check("sum of c^(lrm-1) over S_{}", total, expected, n)


def _tableau_part(rec: RunReport) -> None:
    worked = Matching.from_text("(1,3)(2,6)(4,8)(5,7)")
    t = matching_to_tableau(worked)
    rec.check("worked tableau", t.to_text(), "-;1;11;1;11;21;2;1;-")
    rec.check("worked tableau parse", OscillatingTableau.from_text(t.to_text()), t)
    rec.check("worked tableau inverse", tableau_to_matching(t), worked)
    rec.check("worked tableau column weight", tableau_weight(t, "column"), Poly.monomial(0, 3))
    rec.check("worked tableau row weight", tableau_weight(t, "row"), Poly.monomial(0, 2))
    # The column statistic matches the nonnested weighting matching by
    # matching.  The row statistic does NOT match the no-right-crossing
    # weighting the same way: an insertion bumps only one of the labels it
    # crosses out of the first row, so from six vertices on the pointwise
    # claim and even the summed distributions drift apart.  The suite pins
    # the true row distributions and the smallest matching that separates
    # the two weights.
    row_gfs = {}
    tableau_of = {}
    for half in range(6):
        matchings = list(enumerate_complete(2 * half))
        for m in matchings:
            t = tableau_of[m] = matching_to_tableau(m)
            rec.check("tableau round trip {}", tableau_to_matching(t), m, m)
            rec.check(
                "column statistic of {}",
                tableau_weight(t, "column"),
                weight(m, WeightScheme.MOMENT_NONNESTED),
                m,
            )
        row_gfs[half] = _gf(matchings, lambda m: tableau_weight(tableau_of[m], "row"))
    for half, pinned in (
        (0, {(0, 0): 1}),
        (1, {(0, 1): 1}),
        (2, {(0, 2): 2, (0, 1): 1}),
        (3, {(0, 3): 5, (0, 2): 8, (0, 1): 2}),
        (4, {(0, 4): 14, (0, 3): 47, (0, 2): 39, (0, 1): 5}),
    ):
        rec.check("row statistic distribution, {} vertices",
                  row_gfs[half], Poly(pinned), 2 * half)
    for half in (3, 4, 5):
        rec.ensure("row statistic is not a moment weighting, {} vertices",
                   row_gfs[half] != moment(2 * half),
                   2 * half)
    split = Matching.from_text("(1,5)(2,4)(3,6)")
    t_split = matching_to_tableau(split)
    rec.check("separating matching, row weight",
              tableau_weight(t_split, "row"), Poly.monomial(0, 2))
    rec.check("separating matching, no-right-crossing weight",
              weight(split, WeightScheme.MOMENT_NO_RIGHT_CROSSING),
              Poly.monomial(0, 1))
    for length in range(0, 9, 2):
        tableaux = list(enumerate_tableaux(length))
        expected_count = 1
        for odd in range(1, length, 2):
            expected_count *= odd
        rec.check("tableaux of length {}", len(tableaux), expected_count, length)
        for t in tableaux:
            rec.check("reverse round trip {}", matching_to_tableau(tableau_to_matching(t)), t, t)
    for half in range(1, 5):
        for m in enumerate_complete(2 * half):
            labels = _edge_labels(m)
            edge_by_label = {labels[a]: (a, b) for a, b in m.edges}
            fillings = forward_fillings(m)
            for a, b in m.edges:
                lab = labels[a]
                present = {v for row in fillings[a - 1] for v in row}
                for s in present:
                    ea, eb = edge_by_label[s]
                    if s < lab:
                        rec.ensure(
                            "label {} nests label {} in {}",
                            ea < a and b < eb,
                            s, lab, m,
                        )
                    else:
                        rec.ensure(
                            "label {} crosses label {} from the left in {}",
                            ea < a < eb < b,
                            s, lab, m,
                        )
            depths = _label_depths(tableau_of[m])
            for lab in sorted(edge_by_label):
                deep_row, deep_col = depths[lab]
                stats = edge_stats(m, edge_by_label[lab])
                rec.check(
                    "label {} leaves column one in {}",
                    deep_col > 0,
                    stats.is_nested_by_other,
                    lab, m,
                )
                # Only one direction survives for rows: a bumped label was
                # crossed by the bumping edge, but a crossed label need not
                # be the one that gets bumped.
                rec.ensure(
                    "label {} leaving row one implies a right crossing in {}",
                    stats.has_right_crossing or not deep_row,
                    lab, m,
                )


def _map_part(rec: RunReport) -> None:
    for e_count, expected_count in ((0, 1), (1, 2), (2, 10), (3, 74)):
        maps = list(enumerate_rooted_maps(e_count))
        rec.check("rooted maps with {} edges", len(maps), expected_count, e_count)
        traversals = set()
        for rm in maps:
            obj = rm.to_json_obj()
            rec.check("canonical form is stable: {}", rm.canonical(), rm, obj)
            cm = map_to_connected_matching(rm)
            rec.ensure("traversal of {} is connected", is_connected(cm), obj)
            rec.check("traversal weight of {}", connected_matching_weight(cm), rm.weight(), obj)
            traversals.add(cm)
        rec.check("distinct traversals with {} edges", len(traversals), len(maps), e_count)
        rec.check(
            "traversals cover the connected matchings on {} vertices",
            traversals,
            {m for m in enumerate_complete(2 * e_count + 2) if is_connected(m)},
            2 * e_count + 2,
        )
        rec.check(
            "rooted-map generating function, {} edges",
            _gf(maps, RootedMap.weight),
            moment(2 * e_count).shift_c(),
            e_count,
        )
    loop = RootedMap((1, 0), (1, 0), 0)
    rec.check("one-loop traversal", map_to_connected_matching(loop).to_text(), "(1,4)(2,3)")
    link = RootedMap((0, 1), (1, 0), 0)
    link_matching = map_to_connected_matching(link)
    rec.check("one-link traversal", link_matching.to_text(), "(1,3)(2,4)")
    rec.check("one-link tags", connected_matching_tags(link_matching), frozenset({(2, 4)}))
    worked = RootedMap((1, 2, 0, 4, 5, 6, 7, 8, 3, 9), (3, 7, 9, 0, 5, 4, 8, 1, 6, 2), 0)
    wm = map_to_connected_matching(worked)
    rec.check("worked traversal", wm.to_text(), "(1,5)(2,11)(3,9)(4,12)(6,7)(8,10)")
    rec.check(
        "worked traversal word",
        marked_word(wm),
        ("a", "1", "2", "3", "a", "4", "4", "5", "2", "5", "1", "3"),
    )
    rec.check("worked traversal tags", connected_matching_tags(wm), frozenset({(2, 11), (4, 12)}))


def _tag_sets(m: Matching) -> Iterator[frozenset]:
    """Every set of nonnested edges of m, smallest first."""
    nn = nonnested_edges(m)
    for r in range(len(nn) + 1):
        for combo in itertools.combinations(nn, r):
            yield frozenset(combo)


def _tail_swap_part(rec: RunReport) -> None:
    for n in (2, 4, 6, 8, 10):
        outputs = set()
        connected_count = 0
        for cm in enumerate_complete(n):
            if not is_connected(cm):
                continue
            connected_count += 1
            small, tags = tail_swap(cm)
            rec.check("tail swap round trip {}", tail_swap_inverse(small, tags), cm, cm)
            rec.check(
                "tail swap preserves the tag count of {}",
                len(tags),
                len(connected_matching_tags(cm)),
                cm,
            )
            outputs.add((small, tags))
        rec.check("tail swap injective on {} vertices", len(outputs), connected_count, n)
        expected_pairs = {(sm, t) for sm in enumerate_complete(n - 2) for t in _tag_sets(sm)}
        rec.check("tail swap onto tagged matchings on {} vertices", outputs, expected_pairs, n - 2)
    for n in (0, 2, 4, 6, 8):
        for sm in enumerate_complete(n):
            for tags in _tag_sets(sm):
                big = tail_swap_inverse(sm, tags)
                tag_list = sorted(tags)
                rec.ensure("inverse swap of {} {} connects", is_connected(big), sm, tag_list)
                rec.check("inverse round trip {} {}", tail_swap(big), (sm, tags), sm, tag_list)
    # The first loop's last pass, n = 10, counted both sides.
    rec.check("tagged matchings on 8 vertices", len(expected_pairs), 706)
    rec.check("connected matchings on 10 vertices", connected_count, 706)
    first = Matching.from_text("(1,5)(2,4)(3,8)(6,7)")
    small, tags = tail_swap(first)
    rec.check("worked tail swap", small.to_text(), "(1,3)(2,4)(5,6)")
    rec.check("worked tail swap tags", tags, frozenset({(2, 4)}))
    worked_map_matching = Matching.from_text("(1,5)(2,11)(3,9)(4,12)(6,7)(8,10)")
    small, tags = tail_swap(worked_map_matching)
    rec.check("worked map tail swap", small.to_text(), "(1,4)(2,8)(3,10)(5,6)(7,9)")
    rec.check("worked map tail swap tags", tags, frozenset({(1, 4), (3, 10)}))


@_suite("bijections")
def suite_bijections(rec: RunReport) -> None:
    """Oscillating tableaux, rooted-map traversals, and the tail swap are
    weight-respecting bijections on their full desk-scale domains."""
    _tableau_part(rec)
    _map_part(rec)
    _tail_swap_part(rec)


@_suite("chebyshev limit")
def suite_chebyshev(rec: RunReport) -> None:
    """Rescaling by the square root of c and letting c grow turns the
    polynomials into Chebyshev ones."""
    for n in range(9):
        u = chebyshev_u(n)
        rec.check("rescaled limit at degree {}", chebyshev_limit(n), u, n)
        rec.check("adjacent-edge matchings at degree {}", chebyshev_u_matchings(n), u, n)
        rec.ensure(
            "rescaled exponents stay nonpositive at degree {}",
            all(shift <= 0 for _, shift in chebyshev_rescaled_terms(n)),
            n,
        )


@_suite("linearization conjecture")
def suite_conjecture(rec: RunReport) -> None:
    """Sweep the product-functional-versus-matchings conjecture over every
    block multiset with total size at most ten.

    The sweep does not come back clean: exactly four multisets separate the
    two sides, each by the same polynomial 3c^4 + 6c^3 - 3c^2 - 6c =
    3c(c+1)(c-1)(c+2).  Their block counts still agree at c = 1, which is
    why plain counting never notices.  The suite pins both sides of all
    four so a regression in either computation shows up as a mismatch with
    these frozen values, not as a silent change of verdict.
    """

    # {sizes: (functional side, matching side)}, coefficients by c-degree
    # descending from c^5 down to c.
    separated = {
        (1, 1, 1, 1, 3, 3): ((6, 48, 141, 177, 78), (6, 45, 135, 180, 84)),
        (1, 1, 2, 3, 3): ((4, 37, 122, 167, 78), (4, 34, 116, 170, 84)),
        (1, 3, 3, 3): ((2, 24, 92, 138, 68), (2, 21, 86, 141, 74)),
        (2, 2, 3, 3): ((3, 29, 105, 157, 78), (3, 26, 99, 160, 84)),
    }
    gap = Poly({(0, 4): 3, (0, 3): 6, (0, 2): -3, (0, 1): -6})

    def from_coeffs(coeffs: tuple[int, ...]) -> Poly:
        return Poly({(0, 5 - i): q for i, q in enumerate(coeffs)})

    seen = set()
    for report in conjecture_sweep(10):
        if report.sizes in separated:
            seen.add(report.sizes)
            lhs, rhs = separated[report.sizes]
            rec.ensure("sides separate at block sizes {}",
                       not report.match,
                       report.sizes)
            rec.check("functional side at {}",
                      report.lhs, from_coeffs(lhs), report.sizes)
            rec.check("matching side at {}",
                      report.rhs, from_coeffs(rhs), report.sizes)
            rec.check("gap at {}", report.lhs - report.rhs, gap, report.sizes)
            rec.check("gap closes at c = 1 for {}",
                      (report.lhs - report.rhs).evaluate(c_value=1),
                      Fraction(0),
                      report.sizes)
        else:
            rec.ensure("conjecture at block sizes {}", report.match, report.sizes)
    rec.check("all four separating multisets visited",
              sorted(seen), sorted(separated))


@_suite("shifted moment sequence")
def suite_moment_sequence(rec: RunReport) -> None:
    """Shifted even moments at c = 1 count indecomposable matchings."""
    rec.check(
        "shifted moments at c=1",
        [moment(2 * k).shift_c().evaluate(c_value=1) for k in range(1, 6)],
        [Fraction(v) for v in (2, 10, 74, 706, 8162)],
    )


@_suite("rooted maps, extended")
def suite_maps_extended(rec: RunReport) -> None:
    """The four-edge rooted-map census, the one suite of the extended level."""
    maps = list(enumerate_rooted_maps(4))
    rec.check("rooted maps with 4 edges", len(maps), 706)
    gf = _gf(maps, RootedMap.weight)
    rec.check("rooted-map generating function, 4 edges", gf, moment(8).shift_c())


DESK_SUITES: tuple[Suite, ...] = (
    suite_moment_tables,
    suite_orthogonality,
    suite_involution,
    suite_linearization,
    suite_published_values,
    suite_mixed,
    suite_polynomial_models,
    suite_bijections,
    suite_chebyshev,
    suite_conjecture,
    suite_moment_sequence,
)


def _suites(level: str) -> list[Suite]:
    if level not in LEVELS:
        raise ValueError(f"unknown verification level {level!r}")
    suites = list(DESK_SUITES)
    if level == "extended":
        suites.append(suite_maps_extended)
    return suites


# Every suite, longest first by its desk `--timings` seconds.  The workers
# start the suites in this order, so no long suite starts last and keeps
# its worker busy after the others finish; suites missing here go after these,
# in suite order.
_LONGEST_FIRST = (
    suite_orthogonality,
    suite_bijections,
    suite_involution,
    suite_linearization,
    suite_mixed,
    suite_polynomial_models,
    suite_moment_tables,
    suite_conjecture,
    suite_maps_extended,
    suite_chebyshev,
    suite_published_values,
    suite_moment_sequence,
)


def _dispatch_order(suites: list[Suite]) -> list[int]:
    """The indices into suites in the order the workers start them."""
    rank = {suite: i for i, suite in enumerate(_LONGEST_FIRST)}
    return sorted(range(len(suites)), key=lambda i: rank.get(suites[i], len(rank)))


def _run_suite(suite: Suite, origin: float) -> RunReport:
    """Run one suite and record when it started, in seconds after origin."""
    start = time.perf_counter() - origin
    report = suite()
    report.start = start
    return report


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork(suite: Suite, origin: float, inherited: list[int]) -> tuple[int, int]:
    """Fork a worker that runs suite and writes the pickled report to a pipe
    of its own; return the worker's pid and the pipe's reader.  The worker
    closes the parent's readers, inherited, and leaves through os._exit, so
    it never returns into its caller and flushes none of the streams it
    inherited."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        raise
    if pid:
        os.close(writer)
        return pid, reader
    status = 1
    try:
        import pickle

        for fd in [reader, *inherited]:
            os.close(fd)
        with open(writer, "wb") as stream:
            pickle.dump(_run_suite(suite, origin), stream)
        status = 0
    finally:
        os._exit(status)


def _failed(suite: Suite, cause: OSError | int) -> RunReport:
    """The report of a suite whose worker could not start, cause being the
    error, or exited without reporting, cause being its wait status: one
    failed case that says why."""
    report = RunReport(suite.suite)
    if isinstance(cause, OSError):
        report.check("worker could not start", f"{type(cause).__name__}: {cause}", "a worker")
    else:
        code = os.waitstatus_to_exitcode(cause)
        why = f"worker exit code {code}" if code >= 0 else f"worker killed by signal {-code}"
        report.check("worker exited before reporting", why, "a report")
    return report


def _fork_suites(suites: list[Suite], workers: int, origin: float) -> list[RunReport]:
    """Run each of the given suites, which run_all resolved from its level,
    in a forked worker of its own, at most `workers` at once, started in
    dispatch order, and return their reports in the suites' order.  The
    parent reads whichever running worker's pipe has data, so no worker
    blocks on a full pipe; at a pipe's end it reaps that worker and forks
    the next suite.  A suite whose worker could not start, or exited
    without a report, gets one failed case saying why."""
    # Every CLI call pays this module's imports; only a forked run needs these.
    import pickle
    import select

    waiting = _dispatch_order(suites)[::-1]
    reports: dict[int, RunReport] = {}  # suite index -> its report
    running: dict[int, tuple[int, int, bytearray]] = {}  # reader -> suite index, pid, bytes read
    try:
        while True:
            while waiting and len(running) < workers:
                index = waiting.pop()
                try:
                    pid, reader = _fork(suites[index], origin, list(running))
                except OSError as exc:
                    reports[index] = _failed(suites[index], exc)
                else:
                    running[reader] = (index, pid, bytearray())
            if not running:
                return [reports[index] for index in range(len(suites))]
            for reader in select.select(list(running), [], [])[0]:
                if chunk := os.read(reader, 1 << 16):
                    running[reader][2].extend(chunk)
                    continue
                index, pid, data = running.pop(reader)
                os.close(reader)
                status = os.waitpid(pid, 0)[1]
                if status == 0 and data:
                    reports[index] = pickle.loads(data)
                else:
                    reports[index] = _failed(suites[index], status)
    finally:
        for reader, (_, pid, _) in running.items():
            os.close(reader)
            os.waitpid(pid, 0)


def run_all(level: str = "desk") -> list[RunReport]:
    """Run every suite at the given level and return their reports in
    suite order.

    The suites are independent, so each runs in a forked worker of its
    own, longest first, with one worker per available CPU at a time
    (`_fork_suites`).  They run one after another in this process instead
    with one CPU, where processes cannot be forked, or while other threads
    run, since a fork copies locks those threads may hold.  Each report's seconds are the
    suite's time inside its worker, and its start is when the suite began,
    in seconds after run_all began."""
    origin = time.perf_counter()
    suites = _suites(level)
    workers = min(len(suites), _available_cpus())
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        return _fork_suites(suites, workers, origin)
    return [_run_suite(suite, origin) for suite in suites]

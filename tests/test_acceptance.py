"""Acceptance suite: eleven numbered criteria, one test and one line each.

Run with `pytest -s tests/test_acceptance.py` to see a PASS or FAIL line
per criterion.  Every comparison is exact symbolic equality; nothing is
numeric or approximate.

Each identity is checked in one place: the `verify-all` suites of
`assoc_hermite.verification`.  The module runs `verify-all --level desk`
once, in process, and each criterion asserts that its suite reported no
failures, plus the few checks no suite or unit test makes.  The one
genuinely large check (four-edge rooted maps) only runs when
ASSOC_HERMITE_EXTENDED=1 is set.

Criterion 10 fails by design.  The claim it tests, that the weakly
increasing block arrangement always reproduces the product functional
under the no-right-crossing weighting, is false at exactly four size
multisets with total at most ten.  The failure message lists them with
both sides and the common gap so the discrepancy stays visible instead
of being silently weakened.
"""

import io
import json
import os
from contextlib import contextmanager, redirect_stdout
from functools import cache
from itertools import permutations
from math import factorial

import pytest

from assoc_hermite.cli import main
from assoc_hermite.linearization import conjecture_sweep
from assoc_hermite.maps import enumerate_rooted_maps
from assoc_hermite.moments import (
    PairedMatching,
    enumerate_paired,
    flip_candidate,
    left_to_right_maxima,
    moment,
    orthogonality_involution,
    paired_to_permutation,
    paired_weight,
)
from assoc_hermite.polynomials import C, Poly, rising_factorial

# Suites of the desk level in run order, with the number of cases each checks.
DESK_CASES = [
    ("moment tables", 54),
    ("orthogonality", 147),
    ("involution", 20780),
    ("linearization", 2114),
    ("published values", 10),
    ("mixed products", 165),
    ("polynomial models", 82),
    ("bijections", 7152),
    ("chebyshev limit", 27),
    ("linearization conjecture", 155),
    ("shifted moment sequence", 1),
]


@cache
def desk_run() -> tuple[int, list[dict]]:
    """Exit status and suite reports of one in-process `verify-all --level desk`."""
    out = io.StringIO()
    with redirect_stdout(out):
        status = main(["verify-all", "--level", "desk"])
    return status, json.loads(out.getvalue())


def assert_suite_clean(suite: str) -> None:
    (report,) = [r for r in desk_run()[1] if r["suite"] == suite]
    assert not report["failures"], f"suite {suite!r} failed:\n" + "\n".join(
        f"  {f['case']}: expected {f['expected']} | actual {f['actual']}"
        for f in report["failures"]
    )


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {summary}", flush=True)
        raise
    print(f"criterion {number}: PASS - {summary}", flush=True)


def leading_sign(p: Poly) -> int:
    terms = p.sorted_terms()
    assert len(terms) == 1, "paired weights are single signed monomials"
    return 1 if terms[0][1] > 0 else -1


def test_verify_all_desk_exits_zero_with_pinned_case_counts():
    status, reports = desk_run()
    assert status == 0
    assert [(r["suite"], r["cases"]) for r in reports] == DESK_CASES


def test_criterion_01_moment_tables():
    with criterion(1, "moment tables from paths, both matching weightings, and the continued fraction"):
        assert_suite_clean("moment tables")
        assert moment(8) == 14 * C**4 + 37 * C**3 + 39 * C**2 + 15 * C


def test_criterion_02_orthogonality():
    with criterion(2, "orthogonality through the functional and the signed paired sums"):
        assert_suite_clean("orthogonality")


def test_criterion_03_involution():
    with criterion(3, "the recoloring involution and its diagonal fixed points"):
        assert_suite_clean("involution")
        # The suite checks weight negation only for n >= m; the sign flips
        # on either side of the diagonal.
        for n in range(9):
            for m in range(9 - n):
                for pm in enumerate_paired(n, m):
                    if flip_candidate(pm) is not None:
                        image = orthogonality_involution(pm)
                        assert leading_sign(paired_weight(image)) == -leading_sign(paired_weight(pm))
        # The suite reaches the diagonal only up to n = 4; past it, the n!
        # all-green matchings are fixed, weigh c^lrm and sum to (c)_n.
        for n in (5, 6):
            total = Poly.zero()
            seen = set()
            for sigma in permutations(range(1, n + 1)):
                green = tuple((i, n + sigma[i - 1]) for i in range(1, n + 1))
                pm = PairedMatching(n, n, (), green)
                assert flip_candidate(pm) is None
                pi = paired_to_permutation(pm)
                seen.add(pi)
                w = paired_weight(pm)
                assert w == Poly.monomial(0, left_to_right_maxima(pi))
                total = total + w
            assert len(seen) == factorial(n)
            assert total == rising_factorial(C, n)


def test_criterion_04_linearization():
    with criterion(4, "product expansion with nonnegative integer coefficients and its terminating series"):
        assert_suite_clean("linearization")


def test_criterion_05_published_values():
    with criterion(5, "frozen closed forms for the published product evaluations"):
        assert_suite_clean("published values")


def test_criterion_06_mixed_products():
    with criterion(6, "expansion of an associated times a plain factor over its validity range"):
        assert_suite_clean("mixed products")


def test_criterion_07_shift_identities():
    with criterion(7, "parameter shift: alternating expansion, marker-edge model, anchored and two-row sums"):
        assert_suite_clean("polynomial models")


def test_criterion_08_bijections():
    with criterion(8, "tableau, tail swap, and rooted map translations round trip with weights intact"):
        assert_suite_clean("bijections")


@pytest.mark.skipif(
    os.environ.get("ASSOC_HERMITE_EXTENDED") != "1",
    reason="four-edge map sweep only runs with ASSOC_HERMITE_EXTENDED=1",
)
def test_criterion_08_extended_maps():
    with criterion(8, "extended: four-edge rooted maps"):
        maps = list(enumerate_rooted_maps(4))
        assert len(maps) == 706
        gf = sum((rm.weight() for rm in maps), Poly.zero())
        assert gf == moment(8).shift_c()


def test_criterion_09_chebyshev_limit():
    with criterion(9, "large-parameter limit collapses to the Chebyshev family"):
        assert_suite_clean("chebyshev limit")


def test_criterion_10_block_comparison_sweep():
    with criterion(10, "weakly increasing block arrangements reproduce the functional up to total 10"):
        mismatches = [r for r in conjecture_sweep(10) if not r.match]
        if mismatches:
            lines = [
                f"  sizes {r.sizes}: lhs {r.lhs} | rhs {r.rhs} | gap {r.lhs - r.rhs}"
                for r in mismatches
            ]
            gaps = {str(r.lhs - r.rhs) for r in mismatches}
            lines.append(f"  every gap above equals 3c(c+1)(c-1)(c+2): {gaps}")
            lines.append("  the gap vanishes at c=1, so raw counts hide the discrepancy")
            pytest.fail(
                "mismatches flagged for investigation:\n" + "\n".join(lines),
                pytrace=False,
            )


def test_criterion_11_shifted_moments_count_indecomposable():
    with criterion(11, "shifted even moments at c=1 count indecomposable matchings"):
        assert_suite_clean("shifted moment sequence")

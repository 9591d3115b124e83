"""Acceptance suite: eleven numbered criteria, one test and one line each.

Run with `pytest -s tests/test_acceptance.py` to see a PASS or FAIL line
per criterion.  Every comparison is exact symbolic equality; nothing is
numeric or approximate.

Each identity is checked in one place: the `verify-all` suites of
`assoc_hermite.verification`.  The module runs `verify-all --level desk`
once through `main`, and each criterion asserts that its suite reported no
failures, plus the few checks no suite or unit test makes.  The
four-edge rooted-map census, the one suite of the extended level, runs on
its own.  Apart from the polynomial-model tests in `test_models.py` and
the frozen conjecture counterexamples in `test_linearization.py`, no unit
test only re-runs a suite's check: the other test modules hold reference
oracles, error contracts, domains past the suites and pins no suite makes.

Criterion 10 fails by design.  The claim it tests, that the weakly
increasing block arrangement always reproduces the product functional
under the no-right-crossing weighting, is false at exactly four size
multisets with total at most ten.  The failure message lists them with
both sides and the common gap so the discrepancy stays visible instead
of being silently weakened.
"""

import io
import json
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import cache
from itertools import permutations
from math import factorial
from unittest.mock import patch

import pytest

from assoc_hermite import verification
from assoc_hermite.cli import main
from assoc_hermite.linearization import conjecture_sweep
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
from assoc_hermite.verification import RunReport, run_all, suite_maps_extended

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
def desk_reports() -> list[RunReport]:
    """The desk suites, run once per session."""
    return run_all("desk")


def replay_desk(level: str) -> list[RunReport]:
    assert level == "desk"
    return desk_reports()


@cache
def desk_output(*flags: str) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of `verify-all --level desk` with the
    flags, in process; every flag set reports the same run of the suites,
    which `verify-all` reads from `verification.run_all` when it runs."""
    out, err = io.StringIO(), io.StringIO()
    with patch.object(verification, "run_all", replay_desk), redirect_stdout(out), redirect_stderr(err):
        status = main(["verify-all", "--level", "desk", *flags])
    return status, out.getvalue(), err.getvalue()


def desk_run() -> tuple[int, list[dict]]:
    """Exit status and suite reports of `verify-all --level desk`."""
    status, out, _ = desk_output()
    return status, json.loads(out)


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


def test_verify_all_in_process_matches_the_pool(monkeypatch):
    # desk_reports() runs through the worker pool wherever two CPUs are
    # available; with one CPU run_all runs every suite in this process.
    monkeypatch.setattr("assoc_hermite.verification._available_cpus", lambda: 1)
    in_process = run_all("desk")
    assert [(r.suite, r.cases, r.failures) for r in in_process] == [
        (r.suite, r.cases, r.failures) for r in desk_reports()
    ]


@pytest.mark.parametrize("fmt", [(), ("--csv",)], ids=["json", "csv"])
def test_verify_all_timings_leave_stdout_unchanged(fmt):
    status, out, err = desk_output(*fmt)
    timed_status, timed_out, timed_err = desk_output(*fmt, "--timings")
    assert (timed_status, timed_out) == (status, out)
    assert err == ""
    timings = [json.loads(line) for line in timed_err.splitlines()]
    assert [(t["suite"], t["cases"]) for t in timings] == DESK_CASES
    assert all(t["seconds"] >= 0 and t["start"] >= 0 and t["failures"] == [] for t in timings)


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


def test_criterion_08_extended_maps():
    with criterion(8, "extended: four-edge rooted maps"):
        report = suite_maps_extended()
        assert (report.cases, report.failures) == (2, [])


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

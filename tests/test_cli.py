"""Tests for the command line interface.

Each command is driven through main() with capsys so the asserted output
is exactly what a shell user sees.
"""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assoc_hermite import cli, linearization, maps, verification
from assoc_hermite.cli import BIJECTIONS, GENERATORS, main
from assoc_hermite.models import associated_hermite
from assoc_hermite.moments import moment
from assoc_hermite.matchings import WeightScheme
from assoc_hermite.polynomials import C, Poly, rising_factorial


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# One past the bijection edge limit: a noncrossing matching, an oscillating
# walk, the all-crossing matching (i, i + 301) and a one-vertex map of loops.
EDGES = 301
NONCROSSING = "".join(f"({2 * i - 1},{2 * i})" for i in range(1, EDGES + 1))
ALL_CROSSING = "".join(f"({i},{i + EDGES})" for i in range(1, EDGES + 1))
WALK = "-" + ";1;-" * EDGES
LOOPS = json.dumps(
    {
        "rotation": [(d + 1) % (2 * EDGES) for d in range(2 * EDGES)],
        "pairing": [d ^ 1 for d in range(2 * EDGES)],
        "root": 0,
    }
)


def test_repeated_runs_are_byte_identical(capsys):
    first = run(capsys, "moments", "--upto", "8")
    second = run(capsys, "moments", "--upto", "8")
    assert first == second
    assert first[0] == 0


def test_moments_table(capsys):
    rc, out, _ = run(capsys, "moments", "--upto", "6")
    assert rc == 0
    table = json.loads(out)
    assert len(table) == 7
    assert table[6] == moment(6).to_json_obj()
    assert table[3] == []  # odd moments vanish


def test_moments_upto_zero(capsys):
    rc, out, _ = run(capsys, "moments", "--upto", "0")
    assert rc == 0
    assert out == '[[{"cd": 0, "den": "1", "num": "1", "xd": 0}]]\n'


def test_moments_shifted(capsys):
    rc, out, _ = run(capsys, "moments", "--upto", "4", "--shifted")
    assert json.loads(out)[4] == moment(4).shift_c().to_json_obj()
    assert rc == 0


def test_moments_negative_is_usage_error(capsys):
    rc, _, err = run(capsys, "moments", "--upto", "-1")
    assert rc == 2
    assert err.startswith("error:")


def test_moments_csv(capsys):
    rc, out, _ = run(capsys, "moments", "--csv", "--upto", "2")
    assert rc == 0
    assert out == "n,xd,cd,num,den\n0,0,0,1,1\n2,0,1,1,1\n"


def test_poly_recurrence(capsys):
    rc, out, _ = run(capsys, "poly", "recurrence", "4")
    assert rc == 0
    assert json.loads(out) == associated_hermite(4).to_json_obj()


def test_poly_generators_agree(capsys):
    outputs = set()
    for generator in ("recurrence", "matchings", "marker-edge", "basis"):
        rc, out, _ = run(capsys, "poly", generator, "5")
        assert rc == 0
        outputs.add(out)
    # marker-edge builds the shifted polynomial; shift the others to meet it.
    rc, out, _ = run(capsys, "poly", "recurrence", "5", "--shifted")
    assert rc == 0
    outputs.add(out)
    assert len(outputs) == 2


def test_poly_csv_header(capsys):
    rc, out, _ = run(capsys, "poly", "recurrence", "2", "--csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "xd,cd,num,den"
    assert len(lines) == 3  # x^2 and -c


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "recurrence", "900"],
        ["poly", "chebyshev-limit", "451"],
        ["mixed", "400", "51"],
        ["poly", "hermite", "451"],
        ["poly", "chebyshev", "451"],
        ["poly", "basis", "451"],
    ],
)
def test_associated_recurrence_degree_is_capped(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: degree")


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "matchings", "4", "--cap", "8"],
        ["gf", "2,2", "--cap", "4"],
        ["conjecture", "--sum-max", "4", "--cap", "4"],
        ["moments", "--upto", "2", "--json"],
        ["orthogonality", "2", "2", "--csv"],
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--upto", "21"],
        ["moments", "--upto", "40"],
        ["orthogonality", "11", "10"],
        ["orthogonality", "30", "30"],
        ["linearize", "71", "70"],
        ["linearize", "226", "225"],
        ["linearize", "300", "300"],
        ["mixed", "71", "70"],
        ["mixed", "0", "141"],
        ["bijection", "quadruples", "6"],
        ["poly", "marker-edge", "450"],
        ["gf", "101,101"],
        ["conjecture", "--sum-max", "21"],
        ["bijection", "tableau", NONCROSSING],
        ["bijection", "tableau-inv", "--", WALK],
        ["bijection", "tailswap", ALL_CROSSING],
        ["bijection", "tailswap-inv", NONCROSSING],
        ["bijection", "map-matching", LOOPS],
        ["poly", "matchings", "101"],
        ["poly", "marker-edge", "301"],
    ],
)
def test_costly_commands_refuse_sizes_past_their_cap(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds" in err


@pytest.mark.parametrize(
    "argv, work",
    [
        (["gf", "201,0"], "inhomogeneous_gf"),  # odd, so the parent printed zero
        (["conjecture", "--sum-max", "21"], "conjecture_sweep"),
        (["linearize", "71", "70"], "_linearize"),
        (["mixed", "0", "141"], "_mix"),
        (["bijection", "tailswap", ALL_CROSSING], "tail_swap"),
        (["poly", "matchings", "101"], "matchings"),
        (["poly", "marker-edge", "301"], "marker-edge"),
    ],
)
def test_size_limits_are_checked_before_any_work(capsys, monkeypatch, argv, work):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran past the size limit")

    if work in GENERATORS:
        monkeypatch.setitem(GENERATORS, work, (refuse, GENERATORS[work][1]))
    else:
        # `bijection` imports maps when it runs, and calls maps.tail_swap.
        monkeypatch.setattr(maps if work == "tail_swap" else cli, work, refuse)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.endswith(", the largest accepted\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["orthogonality", "-5", "3"],
        ["orthogonality", "3", "-1"],
        ["linearize", "-1", "2"],
        ["linearize", "2", "-1"],
        ["mixed", "-3", "2"],
        ["mixed", "3", "-2"],
        *(["poly", generator, "-1"] for generator in GENERATORS),
    ],
)
def test_negative_degrees_are_refused(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "must be nonnegative" in err


def test_bijection_quadruples_largest_accepted(capsys):
    rc, out, _ = run(capsys, "bijection", "quadruples", "5")
    assert rc == 0
    docs = json.loads(out)
    assert len(docs) == 8162
    weights = (Poly.from_json_obj(doc["weight"]) for doc in docs)
    assert sum(weights, Poly.zero()) == moment(10).shift_c()


def test_poly_rejects_unknown_generator(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "nope", "3"])
    assert exc.value.code == 2


def test_gf_default_scheme(capsys):
    rc, out, _ = run(capsys, "gf", "2,2,2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["sizes"] == [2, 2, 2]
    assert doc["scheme"] == "no-right-crossing"
    assert doc["value"] == (C**3 + 4 * C**2 + 3 * C).to_json_obj()


def test_gf_nonnested_scheme(capsys):
    rc, out, _ = run(capsys, "gf", "2,2,2", "--scheme", "nonnested")
    assert json.loads(out)["value"] == (2 * C**3 + 4 * C**2 + 2 * C).to_json_obj()
    assert rc == 0


def test_gf_bad_sizes(capsys):
    rc, _, err = run(capsys, "gf", "2,x")
    assert rc == 2
    assert "comma-separated" in err


@pytest.mark.parametrize(
    "sizes, message",
    [
        ("-1,2", "block sizes must be nonnegative"),
        ("-1", "block sizes must be nonnegative"),
        ("-2,4", "block sizes must be nonnegative"),
        ("-2,20", "block sizes must be nonnegative"),
        ("101,101", "block total 202 exceeds 200"),
    ],
)
def test_gf_refuses_negative_sizes_and_totals_past_the_cap(capsys, sizes, message):
    rc, out, err = run(capsys, "gf", "--", sizes)
    assert rc == 2
    assert out == ""
    assert message in err


def test_gf_sums_block_totals_past_the_enumeration_cap(capsys):
    # gf enumerates nothing, so 18 vertices are within its limit.
    rc, out, _ = run(capsys, "gf", "9,9")
    assert rc == 0
    value = Poly.from_json_obj(json.loads(out)["value"])
    assert value.evaluate(c_value=1) == factorial(9)


@pytest.mark.parametrize(
    "sizes, scheme",
    [("1," * 80 + "120", "rightmost"), ("120" + ",1" * 80, "reversed-rightmost")],
)
def test_gf_is_zero_when_the_last_block_outnumbers_the_rest(capsys, sizes, scheme):
    # Read toward it, the block of 120 can only close arcs, and at most 80
    # are open before it; the backward bound drops every history at once.
    rc, out, _ = run(capsys, "gf", sizes, "--scheme", scheme)
    assert rc == 0
    assert json.loads(out)["value"] == []


def test_gf_odd_total_is_zero(capsys):
    rc, out, _ = run(capsys, "gf", "3,4")
    assert rc == 0
    assert json.loads(out)["value"] == []


def test_orthogonality(capsys):
    rc, out, _ = run(capsys, "orthogonality", "2", "2")
    doc = json.loads(out)
    assert rc == 0
    assert doc["match"] is True
    assert doc["expected"] == rising_factorial(C, 2).to_json_obj()
    rc, out, _ = run(capsys, "orthogonality", "1", "2")
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["value"] == []


def test_orthogonality_rejects_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orthogonality", "--csv", "2", "2"])
    assert exc.value.code == 2


def test_linearize(capsys):
    rc, out, _ = run(capsys, "linearize", "2", "1")
    doc = json.loads(out)
    assert rc == 0
    assert doc["match"] is True
    assert len(doc["terms"]) == 2
    rc, out, _ = run(capsys, "linearize", "2", "1", "--csv")
    assert out.splitlines()[0] == "j,xd,cd,num,den"


def test_linearize_csv_builds_no_product(capsys, monkeypatch):
    # The CSV form prints only the coefficients: neither H_N H_M nor the
    # expansion is needed, so making both raise leaves its bytes alone.
    _, expected, _ = run(capsys, "linearize", "5", "3", "--csv")

    def refuse(*args, **kwargs):
        raise AssertionError("the CSV form built a product")

    monkeypatch.setattr(linearization, "associated_hermite", refuse)
    monkeypatch.setattr(linearization, "_expansion", refuse)
    rc, out, err = run(capsys, "linearize", "5", "3", "--csv")
    assert (rc, out, err) == (0, expected, "")


def test_mixed(capsys):
    rc, out, _ = run(capsys, "mixed", "2", "1")
    doc = json.loads(out)
    assert rc == 0
    assert doc["valid_range"] is True
    assert doc["match"] is True
    rc, out, _ = run(capsys, "mixed", "0", "2")
    doc = json.loads(out)
    assert doc["valid_range"] is False
    assert doc["match"] is False
    assert doc["residual"] == (1 - C).to_json_obj()


# The whole stdout of one expansion that holds and one that fails (mixed
# products need n >= m - 1): one record shape, `terms` numbered by j or k.
ONE = '{"cd": 0, "den": "1", "num": "1", "xd": 0}'
EXPANSION_STDOUT = {
    ("linearize", "2", "1"): (
        '{"lhs": [{"cd": 0, "den": "1", "num": "1", "xd": 3}, '
        '{"cd": 1, "den": "1", "num": "-1", "xd": 1}], '
        '"m": 1, "match": true, "n": 2, '
        '"rhs": [{"cd": 0, "den": "1", "num": "1", "xd": 3}, '
        '{"cd": 1, "den": "1", "num": "-1", "xd": 1}], '
        f'"terms": [{{"coefficient": [{ONE}], "j": 0}}, '
        f'{{"coefficient": [{{"cd": 1, "den": "1", "num": "1", "xd": 0}}, {ONE}], "j": 1}}]}}\n'
    ),
    ("mixed", "0", "2"): (
        '{"lhs": [{"cd": 0, "den": "1", "num": "1", "xd": 2}, '
        '{"cd": 0, "den": "1", "num": "-1", "xd": 0}], '
        '"m": 2, "match": false, "n": 0, '
        f'"residual": [{{"cd": 1, "den": "1", "num": "-1", "xd": 0}}, {ONE}], '
        '"rhs": [{"cd": 0, "den": "1", "num": "1", "xd": 2}, '
        '{"cd": 1, "den": "1", "num": "1", "xd": 0}, '
        '{"cd": 0, "den": "1", "num": "-2", "xd": 0}], '
        f'"terms": [{{"coefficient": [{ONE}], "k": 0}}, '
        '{"coefficient": [{"cd": 1, "den": "1", "num": "2", "xd": 0}, '
        '{"cd": 0, "den": "1", "num": "-2", "xd": 0}], "k": 1}], '
        '"valid_range": false}\n'
    ),
}


@pytest.mark.parametrize("argv", sorted(EXPANSION_STDOUT), ids=" ".join)
def test_expansion_stdout_is_pinned(capsys, argv):
    assert run(capsys, *argv) == (0, EXPANSION_STDOUT[argv], "")


def test_conjecture_sweep_small(capsys):
    rc, out, _ = run(capsys, "conjecture", "--sum-max", "4")
    docs = json.loads(out)
    assert rc == 0
    assert all(doc["match"] for doc in docs)
    assert [1, 1] in [doc["sizes"] for doc in docs]
    rc, out, _ = run(capsys, "conjecture", "--sum-max", "2", "--csv")
    lines = out.splitlines()
    assert lines[0] == "sizes,match,lhs,rhs"
    assert '"1,1",True,c,c' in lines


def test_bijection_tailswap(capsys):
    rc, out, _ = run(capsys, "bijection", "tailswap", "(1,5)(2,4)(3,8)(6,7)")
    assert rc == 0
    assert json.loads(out) == {"matching": "(1,3)(2,4)(5,6)", "tags": ["(2,4)"]}


def test_bijection_tailswap_inverse(capsys):
    rc, out, _ = run(
        capsys, "bijection", "tailswap-inv", "(1,3)(2,4)(5,6)", "--tags", "(2,4)"
    )
    assert rc == 0
    assert json.loads(out) == {"matching": "(1,5)(2,4)(3,8)(6,7)"}


def test_bijection_tableau_round_trip(capsys):
    rc, out, _ = run(capsys, "bijection", "tableau", "(1,3)(2,6)(4,8)(5,7)")
    doc = json.loads(out)
    assert rc == 0
    assert doc["tableau"] == "-;1;11;1;11;21;2;1;-"
    # Tableau text starts with "-", so it must follow the -- separator.
    rc, out, _ = run(capsys, "bijection", "tableau-inv", "--", doc["tableau"])
    assert json.loads(out) == {"matching": "(1,3)(2,6)(4,8)(5,7)"}


@pytest.mark.parametrize("edges", [10, 11, 300])
def test_bijection_tableau_text_round_trips_past_nine_boxes_a_row(capsys, edges):
    nested = "".join(f"({i},{2 * edges + 1 - i})" for i in range(1, edges + 1))
    rc, out, _ = run(capsys, "bijection", "tableau", nested)
    assert rc == 0
    tableau = json.loads(out)["tableau"]
    assert run(capsys, "bijection", "tableau-inv", "--", tableau) == (
        0, json.dumps({"matching": nested}) + "\n", ""
    )


def test_bijection_map_matching(capsys):
    payload = json.dumps(
        {
            "rotation": [1, 2, 0, 4, 5, 6, 7, 8, 3, 9],
            "pairing": [3, 7, 9, 0, 5, 4, 8, 1, 6, 2],
            "root": 0,
        }
    )
    rc, out, _ = run(capsys, "bijection", "map-matching", payload)
    doc = json.loads(out)
    assert rc == 0
    assert doc["matching"] == "(1,5)(2,11)(3,9)(4,12)(6,7)(8,10)"
    assert doc["word"] == ["a", "1", "2", "3", "a", "4", "4", "5", "2", "5", "1", "3"]
    assert doc["tags"] == ["(2,11)", "(4,12)"]


@pytest.mark.parametrize(
    "value, message",
    [
        ("{not json", "not JSON"),
        ('{"rotation":[0]}', "pairing"),
        ("[1,2]", "object"),
        ('{"rotation":[1,0],"pairing":[1,0]}', "root"),
        ("[" * 3000 + "]" * 3000, "not JSON"),
    ],
    ids=["not-json", "missing-pairing", "not-object", "missing-root", "nested-too-deep"],
)
def test_bijection_map_matching_bad_json(capsys, value, message):
    rc, _, err = run(capsys, "bijection", "map-matching", value)
    assert rc == 2
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["quadruples", "x"], "quadruples needs an edge count, got 'x'"),
        (["quadruples", "--", "-1"], "edge count must be nonnegative"),
        (["tailswap", "(1,3)"], "needs a complete matching"),
        (["tailswap", "(1,2)(3,4)"], "needs a connected matching"),
        (["tailswap", "--", ""], "needs at least one edge"),
        (["tailswap-inv", "(1,3)"], "needs a complete matching"),
        (["tableau", "(1,3)"], "needs a complete matching"),
        (["tableau-inv", "--", "-;12;-"], "(1, 2) is not a partition"),
        (
            ["map-matching", '{"rotation":[0,1],"pairing":[1,0,3,2],"root":0}'],
            "rotation and pairing must act on the same darts",
        ),
    ],
)
def test_bijection_refuses_objects_outside_its_domain(capsys, argv, message):
    assert run(capsys, "bijection", *argv) == (2, "", f"error: {message}\n")


def test_bijection_quadruples(capsys):
    rc, out, _ = run(capsys, "bijection", "quadruples", "1")
    docs = json.loads(out)
    assert rc == 0
    assert len(docs) == 2
    by_word = {tuple(doc["word"]): doc for doc in docs}
    link = by_word[("a", "1", "a", "1")]
    assert link["connected_matching"] == "(1,3)(2,4)"
    assert link["matching"] == "(1,2)"
    assert link["tableau"] == "-;1;-"
    assert link["tags"] == ["(1,2)"]
    loop = by_word[("a", "1", "1", "a")]
    assert loop["connected_matching"] == "(1,4)(2,3)"
    assert loop["tags"] == []


@pytest.mark.parametrize(
    "op, value",
    [
        ("tableau", "(1,3)(2,4)"),
        ("tableau-inv", "-;1;-"),
        ("tailswap", "(1,3)(2,4)"),
        ("map-matching", '{"rotation": [1,0], "pairing": [1,0], "root": 0}'),
        ("quadruples", "2"),
    ],
    ids=lambda arg: arg if arg in BIJECTIONS else "",
)
def test_tags_apply_only_to_tailswap_inverse(capsys, op, value):
    # Refused before the value is parsed: an unparseable one gets the same error.
    for text in (value, "x"):
        rc, out, err = run(capsys, "bijection", op, "--tags", "(1,3)", "--", text)
        assert (rc, out, err) == (2, "", "error: --tags applies only to tailswap-inv\n")


VERIFY_ALL_USAGE = (
    "usage: assoc-hermite verify-all [-h] [--csv] [--level {desk,extended}]\n"
    "                                [--timings]\n"
)


def test_verify_all_help_text_is_pinned(capsys, monkeypatch):
    # argparse wraps the help to the terminal width it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out == VERIFY_ALL_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --csv                 CSV output instead of JSON\n"
        "  --level {desk,extended}\n"
        "  --timings             also write each suite's report with its seconds to\n"
        "                        standard error\n"
    )


def test_verify_all_refuses_an_unknown_level(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--level", "bogus"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err == VERIFY_ALL_USAGE + (
        "assoc-hermite verify-all: error: argument --level: invalid choice: 'bogus'"
        " (choose from 'desk', 'extended')\n"
    )


@pytest.mark.parametrize("exc", [ValueError, AssertionError])
def test_verify_all_reports_a_suite_that_raises(capsys, monkeypatch, exc):
    @verification._suite("raises")
    def raises(rec):
        rec.check("before the raise", 1, 1)
        raise exc("boom")

    @verification._suite("healthy")
    def healthy(rec):
        rec.check("after the raise", 1, 1)

    monkeypatch.setattr(verification, "DESK_SUITES", (raises, healthy))
    rc, out, err = run(capsys, "verify-all")
    assert rc == 1
    assert json.loads(out) == [
        {
            "suite": "raises",
            "cases": 2,
            "failures": [
                {
                    "case": "uncaught exception",
                    "expected": "no exception",
                    "actual": f"{exc.__name__}: boom",
                }
            ],
        },
        {"suite": "healthy", "cases": 1, "failures": []},
    ]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cpus, threads, forked", [(1, 0, False), (3, 0, True), (3, 1, False)]
)
def test_verify_all_pool_keeps_suite_order_and_failures(monkeypatch, cpus, threads, forked):
    # At most one worker per CPU at a time, but never a fork while another
    # thread runs.
    parent = os.getpid()

    def suite(name):
        @verification._suite(name)
        def body(rec):
            rec.check("ran in a forked worker", os.getpid() != parent, forked)
            rec.check("recorded failure", name, "")

        return body

    stubs = {name: suite(name) for name in "abcd"}
    monkeypatch.setattr(verification, "DESK_SUITES", tuple(stubs.values()))
    # d and b are ranked longest; the unranked a and c follow in suite order.
    monkeypatch.setattr(verification, "_LONGEST_FIRST", (stubs["d"], stubs["b"]))
    monkeypatch.setattr(verification, "_available_cpus", lambda: cpus)
    stop = threading.Event()
    running = [threading.Thread(target=stop.wait) for _ in range(threads)]
    for thread in running:
        thread.start()
    try:
        reports = verification.run_all("desk")
    finally:
        stop.set()
        for thread in running:
            thread.join(timeout=10)
    expected = [(name, 2, [verification.Failure("recorded failure", "", name)]) for name in "abcd"]
    assert [(r.suite, r.cases, r.failures) for r in reports] == expected
    assert all(r.start >= 0 for r in reports)
    if forked:
        # With one worker at a time the suites start in dispatch order.
        alone = verification._fork_suites(verification._suites("desk"), 1, time.perf_counter())
        assert [(r.suite, r.cases, r.failures) for r in alone] == expected
        assert [r.suite for r in sorted(alone, key=lambda r: r.start)] == list("dbac")


# Suites that end their process, only ever a forked worker: in the test
# process itself they return, and the test fails on their missing records.
TEST_PROCESS = os.getpid()


def _exits(rec):
    if os.getpid() != TEST_PROCESS:
        os._exit(3)


def _killed(rec):
    if os.getpid() != TEST_PROCESS:
        os.kill(os.getpid(), signal.SIGKILL)


def _healthy(rec):
    rec.check("healthy", 1, 1)


@pytest.mark.parametrize(
    "cpus, bodies, lost",
    [
        (3, [_exits, _killed, _healthy], ["worker exit code 3", "worker killed by signal 9", None]),
        # Both workers die; the third suite runs in a worker of its own.
        (2, [_exits, _exits, _healthy], ["worker exit code 3", "worker exit code 3", None]),
    ],
    ids=["each-suite-its-worker", "no-worker-left"],
)
def test_verify_all_reports_a_worker_that_dies(capsys, monkeypatch, cpus, bodies, lost):
    suites = [verification._suite(f"suite {i}")(body) for i, body in enumerate(bodies)]
    monkeypatch.setattr(verification, "DESK_SUITES", tuple(suites))
    monkeypatch.setattr(verification, "_available_cpus", lambda: cpus)
    rc, out, err = run(capsys, "verify-all")
    assert (rc, err) == (1, "")
    assert json.loads(out) == [
        {
            "suite": f"suite {i}",
            "cases": 1,
            "failures": [] if why is None else [
                {"case": "worker exited before reporting", "expected": "a report", "actual": why}
            ],
        }
        for i, why in enumerate(lost)
    ]


def _fail_second_call(monkeypatch, name):
    """Make the second call of os.<name> fail with EAGAIN, as a fork does at
    the process limit."""
    real = getattr(os, name)
    calls = []

    def fails_once():
        calls.append(name)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, name, fails_once)


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_verify_all_reports_a_worker_that_cannot_start(capsys, monkeypatch, call):
    # The second suite's worker never starts; the other two run and report.
    suites = [verification._suite(f"suite {i}")(_healthy) for i in range(3)]
    monkeypatch.setattr(verification, "DESK_SUITES", tuple(suites))
    monkeypatch.setattr(verification, "_available_cpus", lambda: 3)
    _fail_second_call(monkeypatch, call)
    rc, out, err = run(capsys, "verify-all")
    assert (rc, err) == (1, "")
    failure = {
        "case": "worker could not start",
        "expected": "a worker",
        "actual": "BlockingIOError: [Errno 11] Resource temporarily unavailable",
    }
    assert json.loads(out) == [
        {"suite": f"suite {i}", "cases": 1, "failures": [failure] if i == 1 else []}
        for i in range(3)
    ]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no descriptor listing")
@pytest.mark.parametrize("case", ["healthy", "worker-exits", "fork-fails"])
def test_verify_all_leaves_no_descriptor_open(monkeypatch, case):
    bodies = [_healthy, _exits if case == "worker-exits" else _healthy, _healthy]
    suites = [verification._suite(f"suite {i}")(body) for i, body in enumerate(bodies)]
    monkeypatch.setattr(verification, "DESK_SUITES", tuple(suites))
    monkeypatch.setattr(verification, "_available_cpus", lambda: 3)
    if case == "fork-fails":
        _fail_second_call(monkeypatch, "fork")
    before = sorted(os.listdir("/proc/self/fd"))
    reports = verification.run_all("desk")
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert [r.ok for r in reports] == [True, case == "healthy", True]


@pytest.mark.parametrize("count, cpus", [(5, 5), (None, 1)])
def test_available_cpus_falls_back_to_the_cpu_count(monkeypatch, count, cpus):
    # Without an affinity call (macOS, Windows) every CPU counts.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert verification._available_cpus() == cpus


def test_verify_all_drains_reports_larger_than_a_pipe(monkeypatch):
    # The big report pickles to about 200 kB, past the 64 kB a pipe
    # buffers, so its worker blocks writing until the parent reads.  The
    # parent reads whichever pipe has data, so that worker finishes and the
    # quick suite starts in its place while the slow one still runs; a
    # parent waiting on the slow suite's pipe first would hold the quick
    # suite back until then.
    def big(rec):
        for i in range(200):
            rec.check("case {}", f"{i:>1000}", "", i)

    bodies = {"slow": lambda rec: time.sleep(1), "big": big, "quick": _healthy}
    suites = [verification._suite(name)(body) for name, body in bodies.items()]
    monkeypatch.setattr(verification, "DESK_SUITES", tuple(suites))
    monkeypatch.setattr(verification, "_available_cpus", lambda: 2)

    def stalled(signum, frame):
        raise TimeoutError("run_all did not finish in 30 s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(30)
    try:
        slow, big_report, quick = verification.run_all("desk")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert big_report.failures == [
        verification.Failure(f"case {i}", "", f"{i:>1000}") for i in range(200)
    ]
    assert (slow.ok, quick.ok) == (True, True)
    assert quick.start < slow.start + slow.seconds


def test_text_buffered_before_verify_all_is_printed_once():
    # Forked workers leave through os._exit and flush no inherited buffer.
    code = (
        "import sys\n"
        "from assoc_hermite import verification\n"
        "verification._available_cpus = lambda: 3\n"
        "ok = verification._suite('ok')(lambda rec: rec.check('ok', 1, 1))\n"
        "verification.DESK_SUITES = (ok, ok, ok)\n"
        "print('buffered before the run')\n"
        "assert all(r.ok for r in verification.run_all('desk'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(verification.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "buffered before the run\n", "")


@pytest.mark.parametrize("level", verification.LEVELS)
def test_dispatch_order_starts_every_suite_once(level):
    suites = verification._suites(level)
    order = verification._dispatch_order(suites)
    assert sorted(order) == list(range(len(suites)))
    assert set(suites) <= set(verification._LONGEST_FIRST)
    assert [suites[i].__name__ for i in order[:3]] == [
        "suite_orthogonality", "suite_bijections", "suite_involution"
    ]


def test_bijection_rejects_unknown_operation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "transmogrify", "(1,2)"])
    assert exc.value.code == 2


def test_bijection_bad_matching_text(capsys):
    rc, _, err = run(capsys, "bijection", "tailswap", "(1,2)(")
    assert rc == 2
    assert err.startswith("error:")


# ----- the exit-code contract over generated command lines -----

# Well-formed and malformed values for each kind of argument; sizes stay small
# so that every example runs in milliseconds.
NUMBER = st.integers(-3, 8).map(str) | st.sampled_from(["", "x", "1.5", "+2", " 3", "1e3"])
MATCHING = st.sampled_from(
    ["(1,2)", "(1,3)(2,4)", "(1,4)(2,3)", "(1,2)(3,4)", "(1,5)(2,4)(3,8)(6,7)", "(1,3)",
     "(2,1)", "(1,1)", "(1,2)(2,3)", "(0,1)", "(1,2)(", "1,2", "", "(a,b)", "()"]
)
TABLEAU = st.sampled_from(
    ["-;1;-", "-;1;11;1;-", "-;1;11;1;11;21;2;1;-", "-", "", "-;2;-", "-;1;1;-",
     "-;;-", "-;1;", "x", "-;11;-", "-;1;11;2;-", "-;1;x;1;-"]
)
MAP_JSON = st.sampled_from(
    ['{"rotation":[1,0],"pairing":[1,0],"root":0}', '{"rotation":[0,1],"pairing":[1,0],"root":0}',
     '{"rotation":[0]}', "[1,2]", "{", "null", "3", '{"rotation":[],"pairing":[],"root":0}',
     '{"rotation":[0,1],"pairing":[1,0],"root":5}', '{"rotation":[1,0],"pairing":[1,0],"root":-1}',
     '{"rotation":[0,0],"pairing":[1,0],"root":0}', '{"rotation":[1,0],"pairing":[0,1],"root":0}',
     '{"rotation":"ab","pairing":[1,0],"root":0}', "[" * 3000 + "]" * 3000]
)
SIZES = st.lists(st.integers(-1, 4), max_size=4).filter(lambda xs: sum(map(abs, xs)) <= 8).map(
    lambda xs: ",".join(map(str, xs))
) | st.sampled_from(["", "3,", "a,b", "1,,2"])
SCHEME = st.sampled_from([[], ["--scheme", "odd"]] + [["--scheme", s.value] for s in WeightScheme])
FORMAT = st.sampled_from([[], ["--csv"]])
SHIFTED = st.sampled_from([[], ["--shifted"]])


@st.composite
def command_lines(draw):
    """argv for one subcommand other than verify-all; text that may start
    with "-" goes after the -- separator."""
    command = draw(st.sampled_from(
        ["poly", "moments", "orthogonality", "linearize", "mixed", "conjecture", "gf", "bijection"]
    ))
    fmt = draw(FORMAT)
    if command == "poly":
        return ["poly", draw(st.sampled_from(tuple(GENERATORS))), draw(NUMBER), *draw(SHIFTED), *fmt]
    if command == "moments":
        return ["moments", "--upto", draw(NUMBER), *draw(SHIFTED), *fmt]
    if command == "conjecture":
        return ["conjecture", "--sum-max", draw(NUMBER), *fmt]
    if command == "gf":
        return ["gf", *draw(SCHEME), *fmt, "--", draw(SIZES)]
    if command == "bijection":
        op = draw(st.sampled_from(BIJECTIONS + ("unknown",)))
        value = draw(MATCHING | TABLEAU | MAP_JSON | st.integers(-2, 2).map(str))
        tags = draw(st.just([]) | MATCHING.map(lambda text: ["--tags", text]))
        return ["bijection", *fmt, *tags, op, "--", value]
    return [command, draw(NUMBER), draw(NUMBER), *fmt]


def exit_status(argv):
    """main's return value, or the code of argparse's SystemExit."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_every_command_line_exits_0_1_or_2(argv):
    assert exit_status(argv) in (0, 1, 2)

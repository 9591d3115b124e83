"""Tests for the command line interface.

Each command is driven through main() with capsys so the asserted output
is exactly what a shell user sees.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assoc_hermite.cli import BIJECTIONS, GENERATORS, main
from assoc_hermite.models import associated_hermite
from assoc_hermite.moments import moment
from assoc_hermite.matchings import WeightScheme
from assoc_hermite.polynomials import C, rising_factorial


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


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
    ],
)
def test_associated_recurrence_degree_is_capped(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: degree")


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
    ],
    ids=["not-json", "missing-pairing", "not-object", "missing-root"],
)
def test_bijection_map_matching_bad_json(capsys, value, message):
    rc, _, err = run(capsys, "bijection", "map-matching", value)
    assert rc == 2
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err


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
     '{"rotation":"ab","pairing":[1,0],"root":0}']
)
SIZES = st.lists(st.integers(-1, 4), max_size=4).filter(lambda xs: sum(map(abs, xs)) <= 8).map(
    lambda xs: ",".join(map(str, xs))
) | st.sampled_from(["", "3,", "a,b", "1,,2"])
SCHEME = st.sampled_from([[], ["--scheme", "odd"]] + [["--scheme", s.value] for s in WeightScheme])
FORMAT = st.sampled_from([[], ["--csv"], ["--json"]])
CAP = st.sampled_from([[]]) | st.integers(-2, 12).map(lambda n: ["--cap", str(n)])
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
        return ["poly", draw(st.sampled_from(GENERATORS)), draw(NUMBER), *draw(SHIFTED), *fmt, *draw(CAP)]
    if command == "moments":
        return ["moments", "--upto", draw(NUMBER), *draw(SHIFTED), *fmt]
    if command == "conjecture":
        return ["conjecture", "--sum-max", draw(NUMBER), *fmt, *draw(CAP)]
    if command == "gf":
        return ["gf", *draw(SCHEME), *fmt, *draw(CAP), "--", draw(SIZES)]
    if command == "bijection":
        op = draw(st.sampled_from(BIJECTIONS + ("unknown",)))
        value = draw(MATCHING | TABLEAU | MAP_JSON | st.integers(-2, 2).map(str))
        return ["bijection", *fmt, "--tags", draw(MATCHING), op, "--", value]
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

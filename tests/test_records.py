"""The contract every record of the package keeps: it is built, compared,
hashed, printed and pickled as a frozen dataclass would be.  Verification
case names and failure records print these reprs, so they are pinned
literally."""

import copy
import pickle
from fractions import Fraction

import pytest

from assoc_hermite.linearization import ConjectureReport
from assoc_hermite.maps import RootedMap
from assoc_hermite.matchings import Blocks, EdgeStats, Matching
from assoc_hermite.models import AnchoredConfig
from assoc_hermite.moments import PairedMatching
from assoc_hermite.polynomials import C, Poly
from assoc_hermite.tableaux import OscillatingTableau
from assoc_hermite.verification import Failure, RunReport

MATCHING = Matching(4, ((2, 4), (1, 3)))

# One sample of every record class, its field tuple, and its literal repr.
SAMPLES = [
    (MATCHING, (4, ((1, 3), (2, 4))), "Matching(n=4, edges=((1, 3), (2, 4)))"),
    (
        EdgeStats(False, True, has_right_crossing=False, nests_edge_or_fixed_point=True),
        (False, True, False, True),
        "EdgeStats(is_nested_by_other=False, has_left_crossing=True, "
        "has_right_crossing=False, nests_edge_or_fixed_point=True)",
    ),
    (Blocks([3, 4]), ((3, 4),), "Blocks(sizes=(3, 4))"),
    (
        PairedMatching(2, 2, ((3, 4),), ((1, 2),)),
        (2, 2, ((3, 4),), ((1, 2),)),
        "PairedMatching(n=2, m=2, black=((3, 4),), green=((1, 2),))",
    ),
    (
        OscillatingTableau([(), (1,), ()]),
        (((), (1,), ()),),
        "OscillatingTableau(shapes=((), (1,), ()))",
    ),
    (
        RootedMap((0, 1), (1, 0), 0),
        ((0, 1), (1, 0), 0),
        "RootedMap(rotation=(0, 1), pairing=(1, 0), root=0)",
    ),
    (
        AnchoredConfig(MATCHING, frozenset({(1, 3)})),
        (MATCHING, frozenset({(1, 3)})),
        "AnchoredConfig(matching=Matching(n=4, edges=((1, 3), (2, 4))), "
        "special=frozenset({(1, 3)}))",
    ),
    (
        ConjectureReport((1, 1), True, C, C),
        ((1, 1), True, C, C),
        "ConjectureReport(sizes=(1, 1), match=True, lhs=Poly({(0, 1): Fraction(1, 1)}), "
        "rhs=Poly({(0, 1): Fraction(1, 1)}))",
    ),
    (
        Failure("case", "1", "2"),
        ("case", "1", "2"),
        "Failure(case='case', expected='1', actual='2')",
    ),
]
IDS = [type(record).__name__ for record, _, _ in SAMPLES]


@pytest.mark.parametrize("record, fields, text", SAMPLES, ids=IDS)
def test_repr_is_literal(record, fields, text):
    assert repr(record) == text


def test_sizes_are_stored_as_the_ints_they_are_read_as():
    # A size is read through operator.index; the record keeps the int it
    # gives, not the object it was given, so True prints as 1.
    pm = PairedMatching(True, True, (), ((1, 2),))
    assert repr(pm) == "PairedMatching(n=1, m=1, black=(), green=((1, 2),))"
    assert type(pm.n) is int and type(pm.m) is int
    assert repr(Blocks((True, 2))) == "Blocks(sizes=(1, 2))"


@pytest.mark.parametrize("record, fields, text", SAMPLES, ids=IDS)
def test_equality_holds_within_a_class_only(record, fields, text):
    assert record == type(record)(*fields)
    for other, _, _ in SAMPLES:
        if type(other) is not type(record):
            assert record.__eq__(other) is NotImplemented
            assert record != other
    assert record.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("record, fields, text", SAMPLES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(record, fields, text):
    if isinstance(record, ConjectureReport):  # its Poly fields are unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(fields)


@pytest.mark.parametrize("record, fields, text", SAMPLES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(record, fields, text):
    name = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_keyword_construction_and_defaults():
    stats = EdgeStats(
        nests_edge_or_fixed_point=True,
        has_right_crossing=False,
        has_left_crossing=True,
        is_nested_by_other=False,
    )
    assert stats == SAMPLES[1][0]
    assert RootedMap((), ()).root is None
    assert RootedMap(pairing=(), rotation=()) == RootedMap((), (), None)
    for args, kwargs in [((1, 2, 3), {}), ((), {}), ((4,), {"n": 4}), ((4, ()), {"m": 1})]:
        with pytest.raises(TypeError):
            Matching(*args, **kwargs)


def test_pickle_round_trips():
    report = RunReport("suite")
    report.check("case", 1, 2)
    copy = pickle.loads(pickle.dumps(report))
    assert (copy.suite, copy.cases, copy.failures) == ("suite", 1, [Failure("case", "2", "1")])
    assert not copy.ok
    paired = SAMPLES[3][0]
    assert pickle.loads(pickle.dumps(paired)) == paired


def test_poly_and_records_holding_it_survive_pickle_and_copy():
    poly = Poly({(2, 1): Fraction(-3, 7), (0, 0): 1})
    report = ConjectureReport((1, 2), False, poly, C)
    for obj in (poly, report):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(clone) is type(obj)
            assert clone == obj
            assert repr(clone) == repr(obj)
    with pytest.raises(AttributeError):
        pickle.loads(pickle.dumps(poly)).terms = {}

"""The result and witness records: immutable named tuples whose reprs,
hashes and defaults read as they always have."""

import pytest

from posit import (Comparison, LassoWord, MalformedLasso, MergePlan,
                   PositionalityVerdict, PropertyReport, Witness1, Witness2,
                   Witness3)
from posit.positionality import OrderLawReport

W = LassoWord("a", "b")
WP = LassoWord("", "ab")

# (record, its repr, a field name): the reprs are those the records have
# always printed
RECORDS = [
    (W, "LassoWord(prefix='a', period='b')", "period"),
    (Witness1("a", "", W, WP),
     "Witness1(u='a', up='', w=LassoWord(prefix='a', period='b'), "
     "wp=LassoWord(prefix='', period='ab'))", "wp"),
    (Witness2("", "ab", W),
     "Witness2(u='', v='ab', w=LassoWord(prefix='a', period='b'))", "v"),
    (Witness3("", "ab", "ac"), "Witness3(u='', v='ab', vp='ac')", "vp"),
    (PropertyReport(False, Witness3("", "a", "b")),
     "PropertyReport(passed=False, witness=Witness3(u='', v='a', vp='b'))",
     "passed"),
    (PositionalityVerdict(False, 3, Witness3("", "a", "b")),
     "PositionalityVerdict(positional=False, failed_property=3, "
     "witness=Witness3(u='', v='a', vp='b'))", "failed_property"),
    (Comparison(False, False, "a", ""),
     "Comparison(left_leq=False, right_leq=False, u='a', up='')", "up"),
    (OrderLawReport(2, ("draw 0: x",)),
     "OrderLawReport(samples=2, violations=('draw 0: x',))", "violations"),
    (MergePlan("s1", "s2", 1), "MergePlan(keep='s1', drop='s2', case=1)",
     "case"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, field", RECORDS, ids=IDS)
class TestRecord:
    def test_repr(self, record, text, field):
        assert repr(record) == text

    def test_fields_cannot_be_assigned(self, record, text, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_equal_copies_hash_equal(self, record, text, field):
        copy = type(record)(*record)
        assert copy == record and copy is not record
        assert hash(copy) == hash(record) == hash(tuple(record))


def test_defaults():
    assert PropertyReport(True) == (True, None)
    assert PositionalityVerdict(True).witness is None
    assert PositionalityVerdict(True).failed_property is None
    assert Comparison(True, False).u is None
    assert Comparison(True, False).up is None


@pytest.mark.parametrize("args, kwargs", [(("a", ""), {}),
                                          (("a",), {"period": ""}),
                                          ((), {"prefix": "", "period": ""})])
def test_lasso_needs_a_period(args, kwargs):
    with pytest.raises(MalformedLasso, match="empty period"):
        LassoWord(*args, **kwargs)


def test_lasso_by_keyword():
    assert LassoWord(prefix="a", period="b") == W == ("a", "b")

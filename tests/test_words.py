import pytest
from hypothesis import given, settings, strategies as st

from posit import (Alphabet, LassoWord, MalformedLasso, ParseError,
                   UnknownLetter, lasso_equal, normalize, parse_lasso,
                   prepend, unroll)

AB = Alphabet("ab")


class TestAlphabet:
    def test_order_is_declaration_order(self):
        assert list(Alphabet("ba")) == ["b", "a"]

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ParseError):
            Alphabet("")
        with pytest.raises(ParseError):
            Alphabet("aa")
        with pytest.raises(ParseError):
            Alphabet("aB")

    def test_require(self):
        assert AB.require("abba") == "abba"
        with pytest.raises(UnknownLetter):
            AB.require("abc")


class TestParse:
    def test_basic(self):
        w = parse_lasso("ab:ba", AB)
        assert (w.prefix, w.period) == ("ab", "ba")
        assert str(w) == "ab:ba"

    def test_empty_prefix_ok(self):
        assert parse_lasso(":a", AB).prefix == ""

    @pytest.mark.parametrize("text", ["ab", "a:b:c", "ab:", ":"])
    def test_malformed(self, text):
        with pytest.raises(MalformedLasso):
            parse_lasso(text, AB)

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetter):
            parse_lasso("a:c", AB)

    def test_empty_period_construction(self):
        with pytest.raises(MalformedLasso):
            LassoWord("a", "")


class TestNormalize:
    def test_primitive_root(self):
        assert normalize(LassoWord("", "abab")) == LassoWord("", "ab")

    def test_rotation_into_period(self):
        assert normalize(LassoWord("ab", "b")) == LassoWord("a", "b")
        assert normalize(LassoWord("ab", "ab")) == LassoWord("", "ab")

    def test_fixpoint(self):
        w = normalize(LassoWord("abb", "ba"))
        assert normalize(w) == w

    def test_equal(self):
        assert lasso_equal(LassoWord("a", "ba"), LassoWord("", "ab"))
        assert not lasso_equal(LassoWord("", "ab"), LassoWord("", "ba"))


class TestUnroll:
    def test_shorter_than_prefix(self):
        assert unroll(LassoWord("abab", "b"), 2) == "ab"

    def test_wraps_period(self):
        assert unroll(LassoWord("a", "bc"), 6) == "abcbcb"

    def test_prepend(self):
        assert prepend("ab", LassoWord("b", "a")) == LassoWord("abb", "a")


words = st.text(alphabet="ab", max_size=6)
periods = st.text(alphabet="ab", min_size=1, max_size=6)


class TestNormalizeProperties:
    @settings(max_examples=200, derandomize=True)
    @given(words, periods)
    def test_normalize_preserves_the_infinite_word(self, pre, per):
        w = LassoWord(pre, per)
        n = normalize(w)
        horizon = 3 * (len(pre) + len(per))
        assert unroll(w, horizon) == unroll(n, horizon)

    @settings(max_examples=200, derandomize=True)
    @given(words, periods)
    def test_normalize_idempotent(self, pre, per):
        n = normalize(LassoWord(pre, per))
        assert normalize(n) == n

    @settings(max_examples=200, derandomize=True)
    @given(words, periods, words, periods)
    def test_equal_iff_unrollings_agree(self, p1, q1, p2, q2):
        w1, w2 = LassoWord(p1, q1), LassoWord(p2, q2)
        horizon = (len(p1) + len(p2) + len(q1) + len(q2)) * 6 + 6
        assert lasso_equal(w1, w2) == (unroll(w1, horizon) == unroll(w2, horizon))

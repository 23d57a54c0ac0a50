"""Fuzzing the four input parsers: any input either parses or raises a
PositError, which the CLI turns into exit 2 with a message.

Text inputs start from the bundled fixtures and get lines dropped,
repeated or swapped, tokens replaced, comments and blank lines added,
and CRLF line ends.  Numbers stay small, because a `states N` line
builds N names before anything else is checked.  The two file parsers
must also agree with the plain reference readers of `oracles`: the
same automaton or arena, or the same exception type and message.
The runs are derandomized, so the gate repeats exactly.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from posit import (Alphabet, PositError, parse_arena, parse_dpa, parse_lasso,
                   witness_from_dict)
from posit.fixtures import ARENA_NAMES, DPA_NAMES, fixture_path

from oracles import ref_parse_arena, ref_parse_dpa

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

DPA_TEXTS = [Path(fixture_path(n)).read_text(encoding="utf-8")
             for n in DPA_NAMES]
ARENA_TEXTS = [Path(fixture_path(n)).read_text(encoding="utf-8")
               for n in ARENA_NAMES]
ALPHABETS = [Alphabet("ab"), Alphabet("abc"), Alphabet("abcd")]

TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    # digits that str.isdigit accepts and int may not, and other near-numbers
    st.sampled_from(["²", "٣", "½", "1e3", "0x1", "-0", "+1", "1_0", "1.0"]),
    st.sampled_from(["dpa", "v1", "v2", "arena", "alphabet", "states",
                     "initial", "trans", "vertex", "edge", "E", "A", "#",
                     "@", "s", "center", "a", "b", "c", "z", "aa", "B"]),
    st.text(alphabet="ab:#@²٣-xEA \t", max_size=4),
)


@st.composite
def mutated(draw, texts):
    """A fixture text with one to four random edits."""
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append(draw(TOKENS))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["token", "token", "token", "drop",
                                   "repeat", "swap", "append", "comment",
                                   "blank"]))
        if op == "drop":
            del lines[i]
        elif op == "comment":
            lines[i] += draw(st.sampled_from([" # note", "#", "\t#x # y"]))
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "# only"])))
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split()
            if op == "append" or not toks:
                toks.append(draw(TOKENS))
            else:
                # counted from the end, where the values are
                toks[-1 - draw(st.integers(0, len(toks) - 1))] = draw(TOKENS)
            lines[i] = " ".join(toks)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def parses_or_refuses(parse, *args):
    try:
        parse(*args)
    except PositError:
        pass


def outcome(parse, text, record):
    """`record` of what `parse` returns, or its error's type and message."""
    try:
        return record(parse(text))
    except PositError as exc:
        return type(exc), str(exc)


@FUZZ
@given(st.one_of(mutated(DPA_TEXTS), st.text(max_size=40)))
def test_parse_dpa(text):
    assert outcome(parse_dpa, text, lambda a: (
        a.alphabet.letters, a.names, a.initial, list(a.delta))) == \
        outcome(ref_parse_dpa, text, tuple)


@FUZZ
@given(st.one_of(mutated(ARENA_TEXTS), st.text(max_size=40)))
def test_parse_arena(text):
    assert outcome(parse_arena, text, lambda g: (
        g.alphabet.letters, g.owners, g.edges,
        {v: g.out_edges(v) for v in g.owners})) == \
        outcome(ref_parse_arena, text, tuple)


@FUZZ
@given(st.one_of(st.text(alphabet="abcdz:²@ ", max_size=8),
                 st.text(max_size=8)),
       st.sampled_from(ALPHABETS))
def test_parse_lasso(text, alphabet):
    parses_or_refuses(parse_lasso, text, alphabet)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.floats(allow_nan=False) | st.text(alphabet="abcdz:²", max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)
FIELDS = st.dictionaries(
    st.sampled_from(["property", "u", "up", "v", "vp", "w", "wp"]),
    st.one_of(st.integers(0, 4), st.text(alphabet="abcdz:", max_size=5),
              JSON),
    max_size=3)
# one valid witness per property, for FIELDS to overwrite
VALID = [{"property": 1, "u": "", "up": "a", "w": "b:a", "wp": ":b"},
         {"property": 2, "u": "a", "v": "b", "w": ":ab"},
         {"property": 3, "u": "", "v": "ab", "vp": "a"}]


@FUZZ
@given(st.one_of(st.tuples(st.sampled_from(VALID), FIELDS)
                 .map(lambda pair: {**pair[0], **pair[1]}),
                 FIELDS, JSON),
       st.sampled_from(ALPHABETS))
def test_witness_from_dict(payload, alphabet):
    parses_or_refuses(witness_from_dict, payload, alphabet)

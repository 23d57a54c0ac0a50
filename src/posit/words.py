"""Alphabets, finite words and ultimately periodic (lasso) words.

Finite words are plain strings whose characters come from an Alphabet.
Infinite words are restricted to lassos ``prefix . period^omega``, written
in text as ``prefix:period``; the period must be nonempty.
"""

from collections import namedtuple

from .errors import MalformedLasso, ParseError, UnknownLetter

_LEGAL = set("abcdefghijklmnopqrstuvwxyz0123456789")


class Alphabet:
    """Ordered set of single-character letters.

    The declaration order is canonical: it fixes tie-breaking in every
    search that enumerates letters.
    """

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise ParseError("alphabet must not be empty")
        seen = set()
        for c in letters:
            if len(c) != 1 or c not in _LEGAL:
                raise ParseError("illegal letter %r: want one of [a-z0-9]" % (c,))
            if c in seen:
                raise ParseError("duplicate letter %r" % (c,))
            seen.add(c)
        self.letters = letters
        self._known = frozenset(letters)

    def __contains__(self, c):
        return c in self._known

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __repr__(self):
        return "Alphabet(%r)" % ("".join(self.letters),)

    def require(self, word):
        """Check every character of `word`, raising UnknownLetter otherwise."""
        for c in word:
            if c not in self._known:
                raise UnknownLetter("letter %r not in alphabet %s" % (c, "".join(self.letters)))
        return word


class LassoWord(namedtuple("LassoWord", "prefix period")):
    """Ultimately periodic word prefix . period^omega."""

    __slots__ = ()

    def __new__(cls, prefix: str, period: str):
        if not period:
            raise MalformedLasso("empty period in lasso %r:%r" % (prefix, period))
        return super().__new__(cls, prefix, period)

    def __str__(self):
        return "%s:%s" % (self.prefix, self.period)


def parse_lasso(text: str, alphabet: Alphabet) -> LassoWord:
    """Parse ``prefix:period`` syntax. The prefix may be empty, the period not."""
    if text.count(":") != 1:
        raise MalformedLasso("expected exactly one ':' in %r" % (text,))
    prefix, period = text.split(":")
    if not period:
        raise MalformedLasso("empty period in %r" % (text,))
    alphabet.require(prefix)
    alphabet.require(period)
    return LassoWord(prefix, period)


def prepend(u: str, w: LassoWord) -> LassoWord:
    """The lasso denoting u followed by w."""
    return LassoWord(u + w.prefix, w.period)

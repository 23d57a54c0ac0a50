"""Deterministic parity automata with transition priorities.

Acceptance is min-even: an infinite run is accepting iff the smallest
priority occurring infinitely often along it is even.  Complementation
is therefore a parity shift.  The text format is line based:

    dpa v1
    alphabet a b
    states 2            # or: states s0 s1
    initial 0
    trans 0 a 1 3       # source letter target priority

Comments start with '#'; priorities are bounded by MAX_PRIORITY in files.

Membership of a lasso word is decided by `cycles._walk`, the evaluator
of strategy plays and monoid omega-powers too, on the (letter position,
state) nodes of the run, with complement priorities (shifted by one).

Residual inclusion is read off one graph, the product of an automaton
with its complement (`residual_graph`): L(p) is not included in L(q)
iff an accepting cycle is reachable from the pair (p, q).  The graph
holds only the pairs reachable from the ones asked about, so a single
inclusion query explores what its pair reaches and no more.
"""

from collections import deque

from .cycles import _walk, accepting_lasso_from, reachable_graph
from .errors import ParseError, PreconditionViolated, UnknownLetter
from .words import Alphabet, LassoWord

MAX_PRIORITY = 16

# Reserved in state and vertex names: used to join product coordinates.
RESERVED = "@"


class Dpa:
    """Complete deterministic parity automaton over a finite alphabet."""

    def __init__(self, alphabet: Alphabet, names, initial: int, delta):
        self.alphabet = alphabet
        self.names = tuple(names)
        self.initial = initial
        # delta[q][c] = (target, priority), one entry per letter
        self.delta = tuple(dict(row) for row in delta)
        if len(self.names) != len(self.delta):
            raise ParseError("state name count does not match transition table")
        if not self.names:
            raise ParseError("automaton needs at least one state")
        if len(set(self.names)) != len(self.names):
            raise ParseError("duplicate state name")
        if not 0 <= initial < len(self.names):
            raise ParseError("initial state out of range")
        self._ids = {name: i for i, name in enumerate(self.names)}
        for q, row in enumerate(self.delta):
            for c in alphabet:
                if c not in row:
                    raise ParseError(
                        "state %s has no transition on %r" % (self.names[q], c))
            for c, (tgt, pri) in row.items():
                if c not in alphabet:
                    raise UnknownLetter("letter %r not in alphabet" % c)
                if not 0 <= tgt < len(self.names):
                    raise ParseError("transition target out of range")
                if pri < 0:
                    raise ParseError("negative priority")

    @property
    def n(self) -> int:
        return len(self.names)

    def state_id(self, name: str) -> int:
        if name not in self._ids:
            raise ParseError("unknown state %r" % name)
        return self._ids[name]

    def __repr__(self):
        return "Dpa(%d states over %r)" % (self.n, "".join(self.alphabet))


def _number(no: int, token: str, what: str) -> int:
    """`token` read as a count or priority.  Only ASCII digits are taken:
    int() would also read '1_0' and the digits of other scripts."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError("line %d: bad %s %r" % (no, what, token))


def _state_names(no: int, rest, alphabet: Alphabet, trans):
    """The names a `states` line declares: a count or a list of names.

    A complete automaton has one `trans` line per state and letter, so a
    count that the file's `trans` lines cannot fill is refused before
    any name is built.  The first state and letter left without a line
    are then among the first len(trans) // len(alphabet) + 1 states.
    """
    if len(rest) == 1 and rest[0].isdigit():
        count = _number(no, rest[0], "state count")
        if count * len(alphabet) > len(trans):
            given = {(src, c) for _no, (src, c, _tgt, _pri) in trans}
            q, c = next((q, c) for q in range(count) for c in alphabet
                        if (str(q), c) not in given)
            raise ParseError(
                "line %d: %d states need %d trans lines, the file has %d: "
                "state %d has no transition on %r"
                % (no, count, count * len(alphabet), len(trans), q, c))
        names = tuple(str(i) for i in range(count))
    else:
        names = tuple(rest)
    for name in names:
        if RESERVED in name:
            raise ParseError(
                "line %d: %r is reserved in state names" % (no, RESERVED))
    return names


def _directives(text: str, header: str):
    """The lines of a .dpa or .arena file after its `header` line, as
    (line number, directive, tokens); '#' starts a comment, and lines
    left blank are skipped."""
    lines = []
    for no, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            lines.append((no, toks))
    if not lines or lines[0][1] != header.split():
        raise ParseError("expected '%s' header" % header)
    return [(no, toks[0], toks[1:]) for no, toks in lines[1:]]


def parse_dpa(text: str) -> Dpa:
    alphabet = None
    states = None
    initial_tok = None
    trans = []
    for no, key, rest in _directives(text, "dpa v1"):
        if key == "alphabet":
            if alphabet is not None:
                raise ParseError("line %d: duplicate alphabet" % no)
            alphabet = Alphabet(rest)
        elif key == "states":
            if states is not None:
                raise ParseError("line %d: duplicate states" % no)
            if not rest:
                raise ParseError("line %d: empty states line" % no)
            states = (no, rest)
        elif key == "initial":
            if initial_tok is not None:
                raise ParseError("line %d: duplicate initial" % no)
            if len(rest) != 1:
                raise ParseError("line %d: initial takes one state" % no)
            initial_tok = rest[0]
        elif key == "trans":
            if len(rest) != 4:
                raise ParseError(
                    "line %d: trans takes source letter target priority" % no)
            trans.append((no, rest))
        else:
            raise ParseError("line %d: unknown directive %r" % (no, key))

    if alphabet is None:
        raise ParseError("missing alphabet line")
    if states is None:
        raise ParseError("missing states line")
    if initial_tok is None:
        raise ParseError("missing initial line")
    names = _state_names(*states, alphabet, trans)
    ids = {name: i for i, name in enumerate(names)}
    if len(ids) != len(names):
        raise ParseError("duplicate state name")
    if initial_tok not in ids:
        raise ParseError("unknown initial state %r" % initial_tok)

    delta = [dict() for _ in names]
    for no, (src, c, tgt, pri_tok) in trans:
        if src not in ids:
            raise ParseError("line %d: unknown state %r" % (no, src))
        if tgt not in ids:
            raise ParseError("line %d: unknown state %r" % (no, tgt))
        if c not in alphabet:
            raise ParseError("line %d: letter %r not in alphabet" % (no, c))
        pri = _number(no, pri_tok, "priority")
        if pri > MAX_PRIORITY:
            raise ParseError(
                "line %d: priority %d outside 0..%d" % (no, pri, MAX_PRIORITY))
        row = delta[ids[src]]
        if c in row:
            raise ParseError(
                "line %d: duplicate transition from %s on %r" % (no, src, c))
        row[c] = (ids[tgt], pri)
    return Dpa(alphabet, names, ids[initial_tok], delta)


def _lasso_step(a: Dpa, w: LassoWord):
    """`_walk`'s step on the (letter position, state) nodes of the lasso
    w, position i reading letter i of its prefix then period, with the
    complement priority.  The first letter outside the alphabet, prefix
    first, raises UnknownLetter."""
    word, loop = w.prefix + w.period, len(w.prefix)
    for c in word:
        if c not in a.alphabet:
            raise UnknownLetter("letter %r not in alphabet" % c)
    delta, last = a.delta, len(word) - 1

    def step(node):
        i, q = node
        t, pri = delta[q][word[i]]
        return (i + 1 if i < last else loop, t), pri + 1
    return step


def member(a: Dpa, w: LassoWord) -> bool:
    """Is w accepted from the initial state?  One walk along its run."""
    return _walk((0, a.initial), _lasso_step(a, w), {})


def _lasso_mask(a: Dpa, w: LassoWord) -> int:
    """Bit r set iff `w` is accepted from automaton state r: one walk
    per state, with one memo for all of them."""
    step, memo = _lasso_step(a, w), {}
    return sum(1 << r for r in range(a.n) if _walk((0, r), step, memo))


def residual_graph(a: Dpa, roots):
    """The product of `a` with its complement, as a cycles.py graph over
    the pairs reachable from `roots`.

    Node (p, q) pairs a state of `a` with one of the complement; each
    edge carries the priority pair of the two transitions.  A lasso is
    accepted by both coordinates from (p, q) iff it is accepted from p
    and rejected from q, so the nodes reaching an accepting cycle are
    exactly the pairs with L(p) not included in L(q).
    """
    def moves(node):
        row1, row2 = a.delta[node[0]], a.delta[node[1]]
        edges = []
        for c in a.alphabet:
            t1, pri1 = row1[c]
            t2, pri2 = row2[c]
            # the complement's priority, shifted by one, second
            edges.append((c, (t1, t2), (pri1, pri2 + 1)))
        return edges

    return reachable_graph(roots, moves)


def residual_included(a: Dpa, p: int, q: int) -> LassoWord | None:
    """None if every lasso accepted from p is accepted from q, else a
    counterexample accepted from p and rejected from q."""
    for state in (p, q):
        if state not in range(a.n):
            raise PreconditionViolated(
                "%r is not a state id of %r" % (state, a))
    return accepting_lasso_from(residual_graph(a, [(p, q)]), (p, q))


def reachable_states(a: Dpa):
    """Map from reachable state id to a shortest access word, BFS order."""
    access = {a.initial: ""}
    queue = deque([a.initial])
    while queue:
        p = queue.popleft()
        for c in a.alphabet:
            t, _ = a.delta[p][c]
            if t not in access:
                access[t] = access[p] + c
                queue.append(t)
    return access

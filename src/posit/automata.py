"""Deterministic parity automata with transition priorities.

Acceptance is min-even: an infinite run is accepting iff the smallest
priority occurring infinitely often along it is even.  Complementation
is therefore a parity shift.  The text format is line based:

    dpa v1
    alphabet a b
    states 2            # or: states s0 s1
    initial 0
    trans 0 a 1 3       # source letter target priority

'#' starts a comment anywhere on a line; priorities are bounded by
MAX_PRIORITY in files.

Membership of a lasso word is decided by `cycles._walk`, the evaluator
of strategy plays and monoid omega-powers too.  The prefix is read from
the start state, and then the walk steps over automaton states a whole
period at a time, with the least priority read in that period
(`_period_step`).  The least priority on the run's cycle is the least
of its periods', so a walk needs at most one node per state, however
long the lasso.

Residual inclusion is read off one graph, the product of an automaton
with its complement (`residual_graph`): L(p) is not included in L(q)
iff an accepting cycle is reachable from the pair (p, q).  The pair is
the integer p·n + q, its edges come from per-letter lists of targets
and priorities, and `cycles.reachable_graph` numbers the pairs as it
discovers them, so the sweep reads successor numbers and no tuple is
ever a node.  The graph holds only the pairs reachable from the ones
asked about, so a single inclusion query explores what its pair
reaches and no more; past RESIDUAL_CAP pairs explored, it stops with
ResidualGraphTooLarge.
"""

from collections import deque

from .cycles import Graph, _walk, accepting_lasso_from, reachable_graph
from .errors import (ParseError, PreconditionViolated, TooManyPriorities,
                     UnknownLetter)
from .words import Alphabet, LassoWord

MAX_PRIORITY = 16
# Zielonka's algorithm (`games._zielonka`) recurses once per distinct
# priority, so an automaton may hold at most this many.  Files allow
# MAX_PRIORITY + 1, and a complement, every priority shifted by one,
# keeps the count.
MAX_DISTINCT_PRIORITIES = 256
# The most pairs a residual graph explores (`residual_graph`).  Built
# and swept, a pair took about 0.73 KB with two letters and 0.82 KB with
# three (CPython 3.11), so the cap keeps the graph under about 1 GB.
RESIDUAL_CAP = 1_000_000

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
        letters = alphabet.letters
        known = set(letters)
        for q, row in enumerate(self.delta):
            for c in letters:
                if c not in row:
                    raise ParseError(
                        "state %s has no transition on %r" % (self.names[q], c))
            for c, (tgt, pri) in row.items():
                if c not in known:
                    raise UnknownLetter("letter %r not in alphabet" % c)
                if not 0 <= tgt < len(self.names):
                    raise ParseError("transition target out of range")
                if pri < 0:
                    raise ParseError("negative priority")
        distinct = len({pri for row in self.delta for _tgt, pri in row.values()})
        if distinct > MAX_DISTINCT_PRIORITIES:
            raise TooManyPriorities(
                "%d distinct priorities exceed the bound of %d"
                % (distinct, MAX_DISTINCT_PRIORITIES))

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
    if len(rest) == 1 and rest[0].isascii() and rest[0].isdigit():
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
    (line number, tokens, the directive first), yielded in one pass
    over the text.  '#' starts a comment anywhere on a line, and lines
    left blank are skipped.  The first line left must be `header`: it
    is checked before any other line is yielded."""
    want = header.split()
    for no, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        toks = raw.split()
        if not toks:
            continue
        if want is None:
            yield no, toks
        elif toks == want:
            want = None
        else:
            break
    if want is not None:
        raise ParseError("expected '%s' header" % header)


def parse_dpa(text: str) -> Dpa:
    alphabet = None
    states = None
    initial_tok = None
    trans = []
    for no, toks in _directives(text, "dpa v1"):
        key = toks[0]
        if key == "trans":
            if len(toks) != 5:
                raise ParseError(
                    "line %d: trans takes source letter target priority" % no)
            trans.append((no, toks[1:]))
        elif key == "alphabet":
            if alphabet is not None:
                raise ParseError("line %d: duplicate alphabet" % no)
            alphabet = Alphabet(toks[1:])
        elif key == "states":
            if states is not None:
                raise ParseError("line %d: duplicate states" % no)
            if len(toks) == 1:
                raise ParseError("line %d: empty states line" % no)
            states = (no, toks[1:])
        elif key == "initial":
            if initial_tok is not None:
                raise ParseError("line %d: duplicate initial" % no)
            if len(toks) != 2:
                raise ParseError("line %d: initial takes one state" % no)
            initial_tok = toks[1]
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


def _one_move_step(a: Dpa, move):
    """`_walk`'s step on the product of `a` with a graph whose node x has
    the single move `move(x) -> (letter, y)`: node (x, q) moves to (y,
    the target of q on letter) with that transition's priority."""
    delta = a.delta

    def step(node):
        letter, dst = move(node[0])
        q2, pri = delta[node[1]][letter]
        return (dst, q2), pri
    return step


def _period_step(a: Dpa, w: LassoWord):
    """`_walk`'s step for the lasso w on the automaton states: state q
    moves to the state that one whole period of w leads it to, with the
    least priority read on the way.  The least priority on the cycle of
    the run is the least of its periods', so the walk's verdict is the
    run's.  The first letter of w outside the alphabet, prefix first,
    raises UnknownLetter."""
    word = w.prefix + w.period
    unknown = set(word).difference(a.alphabet)
    if unknown:
        c = next(c for c in word if c in unknown)
        raise UnknownLetter("letter %r not in alphabet" % c)
    delta, first, rest = a.delta, w.period[0], w.period[1:]

    def step(q):
        q, low = delta[q][first]
        for c in rest:
            q, pri = delta[q][c]
            if pri < low:
                low = pri
        return q, low
    return step


def _after(a: Dpa, q: int, word: str) -> int:
    """The state the finite word leads q to."""
    delta = a.delta
    for c in word:
        q = delta[q][c][0]
    return q


def member(a: Dpa, w: LassoWord) -> bool:
    """Is w accepted from the initial state?  The prefix is read, then
    one walk steps a whole period at a time."""
    step = _period_step(a, w)
    return _walk(_after(a, a.initial, w.prefix), step, {})


def _lasso_mask(a: Dpa, w: LassoWord) -> int:
    """Bit r set iff `w` is accepted from automaton state r: the prefix
    read from each state, then one walk per state over whole periods,
    with one memo of at most `a.n` states for all of them."""
    step, memo = _period_step(a, w), {}
    return sum(1 << r for r in range(a.n)
               if _walk(_after(a, r, w.prefix), step, memo))


def residual_graph(a: Dpa, roots) -> Graph:
    """The product of `a` with its complement, as a `cycles.Graph` over
    the pairs reachable from the pairs (p, q) in `roots`.

    Pair (p, q) of a state of `a` and one of the complement is node
    p·n + q; its edges come letter by letter from per-letter target and
    priority lists, each with the priority pair of the two transitions.
    A lasso is accepted by both coordinates from (p, q) iff it is
    accepted from p and rejected from q, so the nodes reaching an
    accepting cycle are exactly the pairs with L(p) not included in
    L(q).  More than RESIDUAL_CAP pairs raise ResidualGraphTooLarge.
    """
    n = a.n
    ranks = sorted({pri for row in a.delta for _tgt, pri in row.values()})
    rank = {pri: r for r, pri in enumerate(ranks)}
    # the sweep finds only even-minimum cycles, so the second
    # coordinate, which must reject, is the complement's priority; one
    # tuple per pair of priorities serves every edge
    pairs = [[(x, y + 1) for y in ranks] for x in ranks]
    # per letter and state s: the target of s times n, the target of s,
    # the row of priority pairs for the priority of s, and its rank
    letters = []
    for c in a.alphabet:
        column = [row[c] for row in a.delta]
        letters.append((c, [t * n for t, _pri in column],
                        [t for t, _pri in column],
                        [pairs[rank[pri]] for _t, pri in column],
                        [rank[pri] for _t, pri in column]))

    def moves(node):
        p, q = divmod(node, n)
        return [(c, first[p] + second[q], row[p][col[q]])
                for c, first, second, row, col in letters]

    return reachable_graph((p * n + q for p, q in roots), moves,
                           RESIDUAL_CAP)


def residual_included(a: Dpa, p: int, q: int) -> LassoWord | None:
    """None if every lasso accepted from p is accepted from q, else a
    counterexample accepted from p and rejected from q."""
    for state in (p, q):
        if state not in range(a.n):
            raise PreconditionViolated(
                "%r is not a state id of %r" % (state, a))
    return accepting_lasso_from(residual_graph(a, [(p, q)]))


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

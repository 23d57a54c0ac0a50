"""Decide whether a parity-automaton language admits positional strategies.

The decision runs three property checks, each refutable by a finite
witness over lasso words:

1. residual languages are totally preordered by inclusion;
2. if u v w is accepted then u v^w or u w is;
3. if u (v v')^w is accepted then u v^w or u v'^w is.

All three hold iff the language is positional for the protagonist.
They are about words, so every check decides on the quotient of the
reachable states under bisimulation and lifts its witness to the input
(`_Facts`).  Properties 1 and 2 read residual inclusion off one sweep
of the quotient's residual graph, and take their witness lassos from
`residual_included` on the input, as `posit include` does.  Properties
2 and 3 work on the quotient's transition monoid enriched with minimum
priorities (`PriorityMonoid`), so they quantify over finitely many
monoid elements instead of all words.

Property 3 holds iff each R_p, the elements whose omega-power p rejects,
is closed under product.  That is R_p.g inside R_p for each g of a set G
generating a superset of R_p, since any x.y is then some x.g1...gk; G
is built walking R_p, so pairs are scanned only to spell a witness.
"""

import random
from collections import namedtuple
from functools import cached_property
from itertools import combinations, product as iproduct

from . import automata
from .automata import (Dpa, _after, _lasso_mask, member,
                       reachable_states, residual_graph, residual_included)
from .cycles import _walk, nodes_reaching_accepting_cycle
from .errors import (InvalidWitness, MonoidTooLarge, PreconditionViolated,
                     WitnessRecheckFailed)
from .words import Alphabet, LassoWord, parse_lasso, prepend

# Most elements PriorityMonoid generates: a bound on memory (codes and a
# Cayley row per element), not on a scan of all |M|^2 pairs, which no
# check makes.
MONOID_CAP = 100_000


class PriorityMonoid:
    """The priority monoid of an automaton, elements indexed by integers.

    Elements are numbered in breadth-first generation order, letters
    first, so every element's shortest witness word (first in alphabet
    order among those) is the witness of parent[i] followed by letter
    last[i]; a letter has parent -1.  right[i][c] is the element reached
    by appending the c-th letter to element i, and bit p of accepting[i]
    is set when the omega-power of element i is accepted from state p.
    """

    def __init__(self, a: Dpa):
        cap = MONOID_CAP
        self.letters = a.alphabet.letters
        n = a.n
        # Each element is a tuple of n codes: code t * base + g stands for
        # "ends in state t, minimum priority g on the way".
        base = 1 + max(pri for row in a.delta for _, pri in row.values())
        letter_keys, steps = [], []
        for c in self.letters:
            moves = [a.delta[t][c] for t in range(n)]
            letter_keys.append(tuple(t * base + pri for t, pri in moves))
            # steps[c][code]: the code after appending letter c
            steps.append(tuple(moves[t][0] * base + min(g, moves[t][1])
                               for t in range(n) for g in range(base)))
        codes, parent, last, ids = [], [], [], {}
        for ci, key in enumerate(letter_keys):
            if key not in ids:
                ids[key] = len(codes)
                codes.append(key)
                parent.append(-1)
                last.append(ci)
        right = []
        for i, key in enumerate(codes):        # grows while iterated: BFS
            row = []
            for ci, step in enumerate(steps):
                nxt = tuple(map(step.__getitem__, key))
                j = ids.get(nxt)
                if j is None:
                    j = ids[nxt] = len(codes)
                    codes.append(nxt)
                    parent.append(i)
                    last.append(ci)
                    if len(codes) > cap:
                        raise MonoidTooLarge(
                            "priority monoid exceeds %d elements" % cap)
                row.append(j)
            right.append(row)
        self.base = base
        self.codes = codes
        self.parent = parent
        self.last = last
        self.right = right
        self.accepting = [_omega_mask(key, base) for key in codes]

    def target(self, i: int, p: int) -> int:
        """The state element i leads p to."""
        return self.codes[i][p] // self.base

    def path(self, i: int) -> list:
        """The letter numbers of element i's witness, last first."""
        path = []
        while i >= 0:
            path.append(self.last[i])
            i = self.parent[i]
        return path

    def witness(self, i: int) -> str:
        return "".join(self.letters[c] for c in reversed(self.path(i)))


def _omega_mask(key: tuple, base: int) -> int:
    """Bit p set iff the omega-power of the element `key` is accepted
    from p: the least priority on the cycle p falls into is even."""
    step = [(code // base, code % base) for code in key].__getitem__
    memo = {}
    mask = 0
    for p in range(len(key)):
        if _walk(p, step, memo):
            mask |= 1 << p
    return mask


class _Witness:
    """A witness refuting property `number`: its fields in order, as
    strings, after the number."""

    __slots__ = ()

    def as_dict(self):
        return {"property": self.number,
                **{key: str(val) for key, val in zip(self._fields, self)}}


class Witness1(_Witness, namedtuple("Witness1", "u up w wp")):
    """Incomparable residuals: u w and u' w' are accepted, u w' and u' w
    are not."""

    __slots__ = ()
    number = 1


class Witness2(_Witness, namedtuple("Witness2", "u v w")):
    """u v w is accepted while both u v^omega and u w are rejected."""

    __slots__ = ()
    number = 2


class Witness3(_Witness, namedtuple("Witness3", "u v vp")):
    """u (v v')^omega is accepted while u v^omega and u v'^omega are
    rejected."""

    __slots__ = ()
    number = 3


def witness_from_dict(d: dict, alphabet: Alphabet):
    try:
        prop = d["property"]
    except (TypeError, KeyError):
        raise InvalidWitness("witness needs a 'property' field") from None
    # True == 1 and 3.0 == 3, but neither names a property
    kind = None
    if isinstance(prop, int) and not isinstance(prop, bool):
        kind = {1: Witness1, 2: Witness2, 3: Witness3}.get(prop)
    if kind is None:
        raise InvalidWitness("unknown property %r" % (prop,))

    def field(key):
        val = d.get(key)
        if not isinstance(val, str):
            raise InvalidWitness("witness field %r must be a string" % key)
        if key in ("w", "wp"):
            return parse_lasso(val, alphabet)
        return alphabet.require(val)

    return kind(*map(field, kind._fields))


class PropertyReport(namedtuple("PropertyReport", "passed witness",
                                defaults=(None,))):
    __slots__ = ()


class PositionalityVerdict(namedtuple(
        "PositionalityVerdict", "positional failed_property witness",
        defaults=(None, None))):
    __slots__ = ()


def _return_word(a: Dpa, access: dict):
    """Shortest nonempty word leading the initial state back to itself,
    first in alphabet order among those; None if there is none.

    `access` holds the shortest access words of the reachable states in
    breadth-first order, letter by letter, so the answer is the first
    access[p] + c, in that order, that leads back to the initial state.
    """
    return next((u + c for p, u in access.items() for c in a.alphabet
                 if a.delta[p][c][0] == a.initial), None)


def _recheck(a: Dpa, witness, accepted, rejected) -> None:
    """Re-check a witness by membership: every lasso in `accepted` must
    be a member, none in `rejected`.  Raised, not asserted, so the check
    also runs under python -O."""
    for lasso, expected in ([(w, True) for w in accepted]
                            + [(w, False) for w in rejected]):
        if member(a, lasso) != expected:
            raise WitnessRecheckFailed(
                "%r: membership of %s is %s, the witness needs %s"
                % (witness, lasso, not expected, expected))


class _Facts:
    """What the three property checks share, each computed at most once:
    the input's access words and reachable states in order, its quotient,
    each state's block and `least`, each block's least state in block
    order; on first use, on the quotient, the block non-inclusions and
    the priority monoid.  A witness lifts to the input: a state's
    residual language is its block's, and monoid elements are numbered
    in shortlex order of their witness words, so the first element
    passing a test of a block is the same word on either automaton."""

    def __init__(self, a: Dpa):
        self.a = a
        self.access = reachable_states(a)
        self.states = sorted(self.access)
        self.quotient, self.block = _quotient(a, self.states)
        self.least = {}
        for p in self.states:
            self.least.setdefault(self.block[p], p)

    @cached_property
    def residuals(self) -> set:
        """The block pairs (b, c) with L(b) not included in L(c), each as
        its residual graph node b·m + c, m the quotient's state count."""
        return nodes_reaching_accepting_cycle(
            residual_graph(self.quotient, iproduct(self.least, repeat=2)))

    @cached_property
    def monoid(self) -> PriorityMonoid:
        return PriorityMonoid(self.quotient)


def _lifted(a: Dpa, number: int, p: int, q: int) -> LassoWord:
    """A lasso accepted from p and rejected from q, which the quotient
    says exists.  Its absence raises rather than asserts, so a wrong
    quotient is caught under python -O too."""
    lasso = residual_included(a, p, q)
    if lasso is None:
        raise AssertionError(
            "the quotient of %r fails property %d, but L(%s) is included "
            "in L(%s)" % (a, number, a.names[p], a.names[q]))
    return lasso


def _property1(facts: _Facts) -> PropertyReport:
    a, access, block = facts.a, facts.access, facts.block
    bad, m = facts.residuals, facts.quotient.n
    pairs = {divmod(x, m) for x in bad if x % m * m + x // m in bad}
    if not pairs:       # decided on blocks, before any input pair
        return PropertyReport(True)
    states = facts.states
    failing = [(p, q) for i, p in enumerate(states) for q in states[i + 1:]
               if (block[p], block[q]) in pairs]
    # Prefer a pair whose access words are both nonempty so the witness
    # can be realised as a game gadget; fall back to the first pair.
    ret = _return_word(a, access)
    for p, q in failing:
        u, up = access[p] or ret, access[q] or ret
        if u and up:
            break
    else:
        p, q = failing[0]
        u, up = access[p], access[q]
    chosen = Witness1(u, up, _lifted(a, 1, p, q), _lifted(a, 1, q, p))
    _recheck(a, chosen, accepted=(prepend(chosen.u, chosen.w),
                                  prepend(chosen.up, chosen.wp)),
             rejected=(prepend(chosen.u, chosen.wp),
                       prepend(chosen.up, chosen.w)))
    return PropertyReport(False, chosen)


def _property2(facts: _Facts) -> PropertyReport:
    a, monoid = facts.a, facts.monoid
    bad, m = facts.residuals, facts.quotient.n
    ends = {node % m for node in bad}   # only these blocks can fail
    for b in filter(ends.__contains__, facts.least):
        bit = 1 << b
        for i, mask in enumerate(monoid.accepting):
            if mask & bit or monoid.target(i, b) * m + b not in bad:
                continue
            p, v = facts.least[b], monoid.witness(i)
            found = Witness2(facts.access[p], v,
                             _lifted(a, 2, _after(a, p, v), p))
            _recheck(a, found, accepted=(prepend(found.u + found.v, found.w),),
                     rejected=(LassoWord(found.u, found.v),
                               prepend(found.u, found.w)))
            return PropertyReport(False, found)
    return PropertyReport(True)


def _first_unclosed(monoid: PriorityMonoid, states):
    """The first state p of `states` whose R_p is not closed, or None.

    R_p is walked in monoid order; each element not in S, the semigroup
    the generators so far make, becomes a generator g, whose column
    holds x.g for every x of R_p.  R_p is known by the distinct masks of
    `accepting` lacking p, so an empty or repeated R_p is skipped.
    """
    acc, right = monoid.accepting, monoid.right
    masks, closed = set(acc), set()
    for p in states:
        bit = 1 << p
        key = tuple([mask for mask in masks if not mask & bit])
        if not key or key in closed:
            continue
        closed.add(key)
        rejected = [x for x, mask in enumerate(acc) if not mask & bit]
        local = [-1] * len(acc)     # position in `rejected`, -1 outside
        for k, x in enumerate(rejected):
            local[x] = k
        in_s = bytearray(len(rejected))
        members, cols = [], []
        for k, g in enumerate(rejected):
            if in_s[k]:
                continue
            col = rejected
            for c in reversed(monoid.path(g)):
                col = [right[x][c] for x in col]
            col = list(map(local.__getitem__, col))
            if -1 in col:
                return p
            cols.append(col)
            in_s[k] = 1
            old, new = len(members), cols[-1:]
            members.append(k)
            # old members times g, new ones (members grows) times all
            for i, x in enumerate(members):
                for by in (new if i < old else cols):
                    y = by[x]
                    if not in_s[y]:
                        in_s[y] = 1
                        members.append(y)
    return None


def _first_accepted_product(monoid: PriorityMonoid, p: int):
    """The first (i, j) in monoid order such that the omega-powers of
    elements i and j are rejected from p and that of their product is
    accepted.  There is one when R_p is not closed.

    Row i of the product table is filled in generation order, product
    i.j from product i.parent[j] and the right Cayley table, so each
    pair costs a few integer operations.
    """
    acc = monoid.accepting
    bit = 1 << p
    links = list(zip(monoid.parent, monoid.last))
    right = monoid.right
    row = [0] * len(acc)
    for i, right_i in enumerate(right):
        if acc[i] & bit:
            continue
        for j, (par, c) in enumerate(links):
            r = row[j] = right_i[c] if par < 0 else right[row[par]][c]
            if acc[r] & bit and not acc[j] & bit:
                return i, j


def _property3(facts: _Facts) -> PropertyReport:
    """Property 3 fails from a block b iff R_b, the elements whose
    omega-power b rejects, holds i and j with i.j outside it.  Each
    element of R_b is a generator of `_first_unclosed` or made by earlier
    ones, so if every x.g, x in R_b and g a generator, stays in R_b, so
    does every x.y = x.g1...gk, a column at a time: R_b is closed.  That
    costs |R_b| (|G_b| + witness lengths of G_b) lookups, not |R_b| |M|.
    Only the first unclosed block is scanned pair by pair, for the first
    (i, j): the witness a scan of every (p, i, j) on the input would
    report, with u the access word of the block's least state.
    """
    a, monoid = facts.a, facts.monoid
    b = _first_unclosed(monoid, facts.least)
    if b is None:
        return PropertyReport(True)
    i, j = _first_accepted_product(monoid, b)
    found = Witness3(facts.access[facts.least[b]], monoid.witness(i),
                     monoid.witness(j))
    _recheck(a, found, accepted=(LassoWord(found.u, found.v + found.vp),),
             rejected=(LassoWord(found.u, found.v),
                       LassoWord(found.u, found.vp)))
    return PropertyReport(False, found)


def check_property1(a: Dpa) -> PropertyReport:
    """Residual languages must be totally preordered by inclusion.

    One sweep of the quotient's residual graph gives every non-inclusion
    at once; lassos are extracted only for the reported pair.
    """
    return _property1(_Facts(a))


def check_property2(a: Dpa) -> PropertyReport:
    """If u v w is accepted then u v^omega or u w must be."""
    return _property2(_Facts(a))


def check_property3(a: Dpa) -> PropertyReport:
    """If u (v v')^omega is accepted then u v^omega or u v'^omega must be."""
    return _property3(_Facts(a))


def _quotient(a: Dpa, states: list):
    """The quotient of the reachable `states` under bisimulation, and
    each state's block, numbered in `states` order.  `a` itself, each
    state its own block, if every state of `a` is reachable and alone in
    its block, or once the rounds key more than RESIDUAL_CAP states, at
    most |states|^2 as in the residual graph.  Moore's refinement: the
    first round keys every state by its priority per letter, each later
    one by its block and its target's block per letter, until the block
    count stops growing."""
    letters, r = a.alphabet.letters, len(states)
    rows = [[a.delta[p][c] for c in letters] for p in states]
    keys, count, keyed = [tuple([pri for _, pri in row]) for row in rows], 0, r
    while True:
        ids = {}
        block = dict(zip(states, [ids.setdefault(k, len(ids)) for k in keys]))
        if len(ids) in (count, r):
            break
        count, keyed = len(ids), keyed + r
        if keyed > automata.RESIDUAL_CAP:
            return a, dict(zip(states, states))
        keys = [(block[p], *[block[t] for t, _ in row])
                for p, row in zip(states, rows)]
    if len(ids) == a.n:     # states is range(n), each its own block
        return a, block
    rows = {block[p]: row for p, row in zip(states, rows)}.values()
    return Dpa(a.alphabet, map(str, range(len(ids))), block[a.initial],
               [{c: (block[t], pri) for c, (t, pri) in zip(letters, row)}
                for row in rows]), block


def check_positional(a: Dpa) -> PositionalityVerdict:
    """First failing property wins; all passing means positional.

    The three checks share one `_Facts`: properties 1 and 2 read the
    same residual sweep, properties 2 and 3 the same priority monoid,
    which is generated only once property 1 holds.
    """
    facts = _Facts(a)
    for number, check in enumerate((_property1, _property2, _property3), 1):
        report = check(facts)
        if not report.passed:
            return PositionalityVerdict(False, number, report.witness)
    return PositionalityVerdict(True)


class Comparison(namedtuple("Comparison", "left_leq right_leq u up",
                            defaults=(None, None))):
    """Inclusion of two lassos under every reachable prefix.

    left_leq means: every prefix u accepting u w also accepts u w'.
    When a direction fails, u or up holds a prefix witnessing it.
    """

    __slots__ = ()

    @property
    def equivalent(self) -> bool:
        return self.left_leq and self.right_leq

    @property
    def incomparable(self) -> bool:
        return not self.left_leq and not self.right_leq


def _compare(access: dict, left: int, right: int) -> Comparison:
    """The lasso preorder from the masks of the automaton states that
    accept each side: only the reachable states in `access` count, and
    u (u') is the access word of the least one accepting only the left
    (right) side."""
    reach = sum(1 << p for p in access)
    u, up = (access[(bits & -bits).bit_length() - 1] if bits else None
             for bits in (left & ~right & reach, right & ~left & reach))
    return Comparison(u is None, up is None, u, up)


def compare_lassos(a: Dpa, w: LassoWord, wp: LassoWord) -> Comparison:
    return _compare(reachable_states(a), _lasso_mask(a, w),
                    _lasso_mask(a, wp))


class OrderLawReport(namedtuple("OrderLawReport", "samples violations")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_order_laws(a: Dpa, samples: int = 500,
                      seed: int = 0) -> OrderLawReport:
    """Sample the order laws a positional condition must satisfy.

    Laws checked per draw: all sampled lassos are pairwise comparable;
    v w is below v^omega or w; (v v')^omega is below v^omega or v'^omega.
    """
    verdict = check_positional(a)
    if not verdict.positional:
        raise PreconditionViolated(
            "order laws only hold for positional conditions")
    rng = random.Random(seed)
    letters = list(a.alphabet)

    def rand_word(lo, hi):
        return "".join(rng.choice(letters)
                       for _ in range(rng.randint(lo, hi)))

    access = reachable_states(a)
    violations = []
    for i in range(samples):
        v = rand_word(1, 3)
        vp = rand_word(1, 3)
        w = LassoWord(rand_word(0, 2), rand_word(1, 3))
        # v w, v^omega, v'^omega, (v v')^omega and w, each walked once
        pool = [prepend(v, w), LassoWord("", v), LassoWord("", vp),
                LassoWord("", v + vp), w]
        masks = [_lasso_mask(a, x) for x in pool]
        for x, y in combinations(range(len(pool)), 2):
            if _compare(access, masks[x], masks[y]).incomparable:
                violations.append("draw %d: %s and %s incomparable"
                                  % (i, pool[x], pool[y]))
        # v w below v^omega or w, (v v')^omega below v^omega or v'^omega
        for x, y, z in ((0, 1, 4), (3, 1, 2)):
            if not (_compare(access, masks[x], masks[y]).left_leq
                    or _compare(access, masks[x], masks[z]).left_leq):
                violations.append("draw %d: %s above both %s and %s"
                                  % (i, pool[x], pool[y], pool[z]))
    return OrderLawReport(samples, tuple(violations))

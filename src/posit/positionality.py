"""Decide whether a parity-automaton language admits positional strategies.

The decision runs three property checks, each refutable by a finite
witness over lasso words:

1. residual languages are totally preordered by inclusion;
2. if u v w is accepted then u v^w or u w is;
3. if u (v v')^w is accepted then u v^w or u v'^w is.

All three hold iff the language is positional for the protagonist.
Properties 1 and 2 read residual inclusion off one sweep of the
residual graph.  Properties 2 and 3 work on the transition monoid
enriched with minimum priorities (`PriorityMonoid`), so they quantify
over finitely many monoid elements instead of all words.
`check_positional` computes each of these once and hands it to every
check that reads it.
"""

import os
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as iproduct

from .automata import (Dpa, _lasso_mask, member, reachable_states,
                       residual_graph)
from .cycles import (_walk, accepting_lasso_from,
                     nodes_reaching_accepting_cycle)
from .errors import (InvalidSetting, InvalidWitness, MonoidTooLarge,
                     PreconditionViolated, WitnessRecheckFailed)
from .words import Alphabet, LassoWord, parse_lasso, prepend

DEFAULT_MONOID_CAP = 100_000


def monoid_cap() -> int:
    """POSIT_MONOID_CAP, or DEFAULT_MONOID_CAP when it is unset.  Only
    ASCII digits are read, as in files: int() would also take '1_000',
    ' 7' and the digits of other scripts."""
    text = os.environ.get("POSIT_MONOID_CAP")
    if text is None:
        return DEFAULT_MONOID_CAP
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            cap = int(text)
        except ValueError:  # more digits than int() converts
            pass
        else:
            if cap < 1:
                raise InvalidSetting(
                    "POSIT_MONOID_CAP must be at least 1, not %d" % cap)
            return cap
    raise InvalidSetting("POSIT_MONOID_CAP must be an integer, not %r"
                         % text)


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
        cap = monoid_cap()
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

    def witness(self, i: int) -> str:
        letters = []
        while i >= 0:
            letters.append(self.letters[self.last[i]])
            i = self.parent[i]
        return "".join(reversed(letters))


def _omega_mask(key: tuple, base: int) -> int:
    """Bit p set iff the omega-power of the element `key` is accepted
    from p: the least priority on the cycle p falls into is even."""
    step = [(code // base, code % base + 1) for code in key].__getitem__
    memo = {}
    mask = 0
    for p in range(len(key)):
        if _walk(p, step, memo):
            mask |= 1 << p
    return mask


@dataclass(frozen=True)
class Witness1:
    """Incomparable residuals: u w and u' w' are accepted, u w' and u' w
    are not."""

    u: str
    up: str
    w: LassoWord
    wp: LassoWord

    def as_dict(self):
        return {"property": 1, "u": self.u, "up": self.up,
                "w": str(self.w), "wp": str(self.wp)}


@dataclass(frozen=True)
class Witness2:
    """u v w is accepted while both u v^omega and u w are rejected."""

    u: str
    v: str
    w: LassoWord

    def as_dict(self):
        return {"property": 2, "u": self.u, "v": self.v, "w": str(self.w)}


@dataclass(frozen=True)
class Witness3:
    """u (v v')^omega is accepted while u v^omega and u v'^omega are
    rejected."""

    u: str
    v: str
    vp: str

    def as_dict(self):
        return {"property": 3, "u": self.u, "v": self.v, "vp": self.vp}


def witness_from_dict(d: dict, alphabet: Alphabet):
    try:
        prop = d["property"]
    except (TypeError, KeyError):
        raise InvalidWitness("witness needs a 'property' field") from None

    def word(key):
        val = d.get(key)
        if not isinstance(val, str):
            raise InvalidWitness("witness field %r must be a string" % key)
        alphabet.require(val)
        return val

    def lasso(key):
        val = d.get(key)
        if not isinstance(val, str):
            raise InvalidWitness("witness field %r must be a string" % key)
        return parse_lasso(val, alphabet)

    # True == 1 and 3.0 == 3, but neither names a property
    if not isinstance(prop, int) or isinstance(prop, bool):
        raise InvalidWitness("unknown property %r" % (prop,))
    if prop == 1:
        return Witness1(word("u"), word("up"), lasso("w"), lasso("wp"))
    if prop == 2:
        return Witness2(word("u"), word("v"), lasso("w"))
    if prop == 3:
        return Witness3(word("u"), word("v"), word("vp"))
    raise InvalidWitness("unknown property %r" % (prop,))


@dataclass(frozen=True)
class PropertyReport:
    passed: bool
    witness: object = None


@dataclass(frozen=True)
class PositionalityVerdict:
    positional: bool
    failed_property: int | None = None
    witness: object = None


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
    the access words of the reachable states and those states in order;
    on first use, the residual graph over pairs of them with the set of
    pairs (p, q) such that L(p) is not included in L(q), and the
    priority monoid."""

    def __init__(self, a: Dpa):
        self.a = a
        self.access = reachable_states(a)
        self.states = sorted(self.access)

    @cached_property
    def residuals(self):
        """(residual graph, its nodes reaching an accepting cycle)."""
        g = residual_graph(self.a, iproduct(self.states, repeat=2))
        return g, nodes_reaching_accepting_cycle(g)

    @cached_property
    def monoid(self) -> PriorityMonoid:
        return PriorityMonoid(self.a)


def _property1(facts: _Facts) -> PropertyReport:
    a, access, states = facts.a, facts.access, facts.states
    g, bad = facts.residuals
    failing = [(p, q) for i, p in enumerate(states) for q in states[i + 1:]
               if (p, q) in bad and (q, p) in bad]
    if not failing:
        return PropertyReport(True)
    # Prefer a pair whose access words are both nonempty so the witness
    # can be realised as a game gadget; fall back to the first pair.
    ret = _return_word(a, access)

    def u_of(state):
        u = access[state]
        if not u and ret is not None:
            return ret
        return u

    for p, q in failing:
        if u_of(p) and u_of(q):
            u, up = u_of(p), u_of(q)
            break
    else:
        p, q = failing[0]
        u, up = access[p], access[q]
    chosen = Witness1(u, up, accepting_lasso_from(g, (p, q)),
                      accepting_lasso_from(g, (q, p)))
    _recheck(a, chosen, accepted=(prepend(chosen.u, chosen.w),
                                  prepend(chosen.up, chosen.wp)),
             rejected=(prepend(chosen.u, chosen.wp),
                       prepend(chosen.up, chosen.w)))
    return PropertyReport(False, chosen)


def _property2(facts: _Facts) -> PropertyReport:
    a, access, monoid = facts.a, facts.access, facts.monoid
    g, bad = facts.residuals
    for p in facts.states:
        bit = 1 << p
        for i, mask in enumerate(monoid.accepting):
            if mask & bit:
                continue
            q = monoid.target(i, p)
            if (q, p) not in bad:
                continue
            found = Witness2(access[p], monoid.witness(i),
                             accepting_lasso_from(g, (q, p)))
            _recheck(a, found, accepted=(prepend(found.u + found.v, found.w),),
                     rejected=(LassoWord(found.u, found.v),
                               prepend(found.u, found.w)))
            return PropertyReport(False, found)
    return PropertyReport(True)


def _first_accepted_product(monoid: PriorityMonoid, reach: int):
    """The first (p, i, j), p in `reach` lowest first, then i and j in
    monoid order, such that the omega-powers of elements i and j are
    rejected from p and that of their product is accepted; or None.

    Row i of the product table is filled in generation order, product
    i.j from product i.parent[j] and the right Cayley table, so each
    pair costs a few integer operations.
    """
    acc = monoid.accepting
    rej = [~mask for mask in acc]
    links = list(zip(monoid.parent, monoid.last))
    right = monoid.right
    row = [0] * len(acc)
    best = None
    for i, right_i in enumerate(right):
        open_ = reach & rej[i]
        if not open_:
            continue
        for j, (par, c) in enumerate(links):
            r = row[j] = right_i[c] if par < 0 else right[row[par]][c]
            bits = open_ & rej[j] & acc[r]
            if bits:
                p = (bits & -bits).bit_length() - 1
                best = (p, i, j)
                # Only a lower start state can still come first.
                reach &= (1 << p) - 1
                open_ &= reach
                if not open_:
                    break
        if not reach:
            break
    return best


def _property3(facts: _Facts) -> PropertyReport:
    a, access, monoid = facts.a, facts.access, facts.monoid
    first = _first_accepted_product(monoid, sum(1 << p for p in access))
    if first is None:
        return PropertyReport(True)
    p, i, j = first
    found = Witness3(access[p], monoid.witness(i), monoid.witness(j))
    _recheck(a, found, accepted=(LassoWord(found.u, found.v + found.vp),),
             rejected=(LassoWord(found.u, found.v),
                       LassoWord(found.u, found.vp)))
    return PropertyReport(False, found)


def check_property1(a: Dpa) -> PropertyReport:
    """Residual languages must be totally preordered by inclusion.

    One sweep of the residual graph gives every non-inclusion at once;
    lassos are extracted only for the reported pair.
    """
    return _property1(_Facts(a))


def check_property2(a: Dpa) -> PropertyReport:
    """If u v w is accepted then u v^omega or u w must be."""
    return _property2(_Facts(a))


def check_property3(a: Dpa) -> PropertyReport:
    """If u (v v')^omega is accepted then u v^omega or u v'^omega must be."""
    return _property3(_Facts(a))


def check_positional(a: Dpa) -> PositionalityVerdict:
    """First failing property wins; all passing means positional.

    The three checks share one `_Facts`: properties 1 and 2 read the
    same residual sweep, properties 2 and 3 the same priority monoid,
    which is generated only once property 1 holds.
    """
    facts = _Facts(a)
    for number, check in ((1, _property1), (2, _property2),
                          (3, _property3)):
        report = check(facts)
        if not report.passed:
            return PositionalityVerdict(False, number, report.witness)
    return PositionalityVerdict(True)


@dataclass(frozen=True)
class Comparison:
    """Inclusion of two lassos under every reachable prefix.

    left_leq means: every prefix u accepting u w also accepts u w'.
    When a direction fails, u or up holds a prefix witnessing it.
    """

    left_leq: bool
    right_leq: bool
    u: str | None = None
    up: str | None = None

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


@dataclass(frozen=True)
class OrderLawReport:
    samples: int
    violations: tuple

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

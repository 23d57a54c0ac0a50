"""Build counterexample games from positionality-failure witnesses.

Each witness turns into a small arena on which Eve wins with memory but
no positional strategy wins, which certifies that the condition is not
positional.  Choice vertices belong to Eve; all threaded intermediate
vertices belong to Adam but have a single move, so ownership is moot.
"""

from .automata import Dpa
from .errors import InvalidWitness
from .games import ADAM, EVE, Arena, Game, find_positional, solve_game
from .positionality import Witness1, Witness2, Witness3
from .words import Alphabet, LassoWord


class _Builder:
    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.owners = {}
        self.edges = []
        self._fresh = 0

    def vertex(self, name: str, owner: str) -> str:
        self.owners[name] = owner
        return name

    def fresh(self) -> str:
        self._fresh += 1
        return self.vertex("t%d" % self._fresh, ADAM)

    def edge(self, src: str, letter: str, dst: str) -> None:
        self.edges.append((src, letter, dst))

    def path(self, frm: str, word: str, to: str) -> None:
        """Thread reading `word` from `frm` to `to`; `word` nonempty."""
        cur = frm
        for letter in word[:-1]:
            nxt = self.fresh()
            self.edge(cur, letter, nxt)
            cur = nxt
        self.edge(cur, word[-1], to)

    def lasso_exit(self, frm: str, w: LassoWord) -> None:
        """One-way exit from `frm` that plays exactly w forever."""
        cycle = [self.fresh() for _ in w.period]
        for i, letter in enumerate(w.period):
            self.edge(cycle[i], letter, cycle[(i + 1) % len(cycle)])
        if w.prefix:
            self.path(frm, w.prefix, cycle[0])
        else:
            self.edge(frm, w.period[0], cycle[1 % len(cycle)])

    def arena(self) -> Arena:
        return Arena(self.alphabet, self.owners, self.edges)


def gadget_from_witness(witness, alphabet: Alphabet):
    """(arena, start vertices) realising the witness as a game.

    The returned arena forces every play from a start to spell one of
    the word combinations the witness talks about.  It certifies when
    Eve wins from every start but no positional strategy wins from all.
    """
    b = _Builder(alphabet)
    if isinstance(witness, Witness1):
        # Adam picks the prefix u or u', Eve then commits to an exit; an
        # empty access word makes the hub itself a second start.
        alphabet.require(witness.u)
        alphabet.require(witness.up)
        access = [word for word in (witness.u, witness.up) if word]
        starts = [b.vertex("s", ADAM)] if access else []
        hub = b.vertex("e", EVE)
        for word in access:
            b.path("s", word, hub)
        if len(access) < 2:
            starts.append(hub)
        b.lasso_exit(hub, witness.w)
        b.lasso_exit(hub, witness.wp)
        return b.arena(), starts
    if isinstance(witness, Witness2):
        # Eve repeats v or leaves for w after the forced prefix u.
        if not witness.v:
            raise InvalidWitness("the loop word must be nonempty")
        alphabet.require(witness.u)
        alphabet.require(witness.v)
        hub = b.vertex("e", EVE)
        if witness.u:
            start = b.vertex("s", ADAM)
            b.path(start, witness.u, hub)
        else:
            start = hub
        b.path(hub, witness.v, hub)
        b.lasso_exit(hub, witness.w)
        return b.arena(), [start]
    if isinstance(witness, Witness3):
        # Eve alternates freely between the v and v' loops.
        if not witness.v or not witness.vp:
            raise InvalidWitness("both loop words must be nonempty")
        alphabet.require(witness.u)
        alphabet.require(witness.v)
        alphabet.require(witness.vp)
        hub = b.vertex("e", EVE)
        if witness.u:
            start = b.vertex("s", ADAM)
            b.path(start, witness.u, hub)
        else:
            start = hub
        b.path(hub, witness.v, hub)
        b.path(hub, witness.vp, hub)
        return b.arena(), [start]
    raise InvalidWitness("unknown witness %r" % (witness,))


def certify(a: Dpa, witness):
    """Build the witness's gadget game and solve it: (arena, starts, does
    Eve win from every start, does one positional strategy)."""
    arena, starts = gadget_from_witness(witness, a.alphabet)
    game = Game(arena, a)
    eve_wins = solve_game(game).winning_region.issuperset(starts)
    return arena, starts, eve_wins, find_positional(game, starts) is not None


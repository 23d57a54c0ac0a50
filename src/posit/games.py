"""Two-player games on finite arenas with parity-automaton objectives.

An arena is a sinkless directed graph with letter-labelled edges and a
vertex owner (Eve or Adam).  A game pairs an arena with an automaton
over the same alphabet; a play is winning for Eve iff the sequence of
letters it produces is accepted.  Strategies are letter-labelled graphs
mapped onto the arena: memory states refine arena vertices, so the
number of memory states per vertex bounds the memory needed.

Two products with the condition are built here.  The first is the
arena with the automaton, a parity game (`product_game`).  Every
(vertex, state) pair is one of its nodes, so it is numbered outright,
node (v, q) as rank(v)·n + q, and stored as flat integer lists.
Zielonka's algorithm solves it on node numbers (`_zielonka` over its
edge-split form, which `ParityGame` also stores), each region a
`bytearray` mask over the split game's nodes that an attractor copies
and clears, so the copy is the region left for the next level.  Both
players' moves go into one table over the product nodes, so `_solve`
yields a winning edge for every product node its owner wins.
`solve_game`, the only entry to the solver, builds the play of the
winning choice over the same numbers, naming memory states only at the
end.  The second is a strategy's plays with the complement automaton,
whose reachable accepting cycles are the plays the strategy loses
(`_wins`, which `verify_strategy` and `find_positional` share).  It is
built only for branching plays, where the threshold/SCC sweep of
`cycles.nodes_reaching_accepting_cycle` decides it.  When every play
state has one move, as on an Eve-only arena, `cycles._walk` walks the
plays on the automaton itself, stepping with `automata._one_move_step`
as the merge loop of `reduction.reduce_to_positional` does.
`cycles.reachable_graph` builds every play graph and that product.
"""

from itertools import chain, compress, count, product as iproduct, repeat
from operator import add, sub
from math import prod
import random

from .automata import RESERVED, Dpa, _directives, _one_move_step
from .cycles import _walk, nodes_reaching_accepting_cycle, reachable_graph
from .errors import (AlphabetMismatch, GameTooLarge, InvalidStrategy,
                     ParseError, PreconditionViolated, SearchSpaceTooLarge,
                     SinkVertex, UnknownLetter)
from .words import Alphabet

EVE = "E"
ADAM = "A"
_CHOICE_CAP = 10 ** 6  # the most choice functions `find_positional` tries
# The most nodes of `product_game`'s split game, |V|·n + |E|·n.  Solved
# by `solve_game`, a node took 0.21 to 0.41 KB (CPython 3.11, 30 000-
# vertex random arenas), so the cap keeps a solve under about 1 GB.
GAME_CAP = 2_500_000


class Arena:
    """Sinkless labelled game graph with an owner per vertex.

    A repeated edge counts once, at its first occurrence.  The checks
    run in a fixed order, so a malformed arena is always named by the
    same error: the first edge with an unknown endpoint or letter, then
    the first vertex with an unknown owner or a reserved name, then the
    first vertex without an outgoing edge.
    """

    def __init__(self, alphabet: Alphabet, owners: dict, edges):
        self.alphabet = alphabet
        self.owners = owners = dict(owners)
        self.edges = edges = list(dict.fromkeys(map(tuple, edges)))
        known = set(alphabet.letters)
        self._out = out = {v: [] for v in owners}
        for src, letter, dst in edges:
            if src not in out or dst not in out:
                raise ParseError("edge endpoint %r is not a vertex"
                                 % (src if src not in out else dst))
            if letter not in known:
                raise UnknownLetter("letter %r not in alphabet" % letter)
            out[src].append((letter, dst))
        for v, owner in owners.items():
            if owner not in (EVE, ADAM):
                raise ParseError("vertex %r has unknown owner %r" % (v, owner))
            if RESERVED in v:
                raise ParseError("%r is reserved in vertex names" % RESERVED)
        for v, moves in out.items():
            if not moves:
                raise SinkVertex("vertex %r has no outgoing edge" % v)

    def out_edges(self, v):
        return self._out[v]

    def eve_only(self) -> bool:
        return all(owner == EVE for owner in self.owners.values())

    def __repr__(self):
        return "Arena(%d vertices, %d edges)" % (len(self.owners),
                                                 len(self.edges))


def parse_arena(text: str) -> Arena:
    alphabet = None
    owners = {}
    edges = []
    for no, toks in _directives(text, "arena v1"):
        key = toks[0]
        if key == "edge":
            if len(toks) != 4:
                raise ParseError(
                    "line %d: edge takes source letter target" % no)
            edges.append((toks[1], toks[2], toks[3]))
        elif key == "vertex":
            if len(toks) != 3:
                raise ParseError("line %d: vertex takes name and owner" % no)
            name = toks[1]
            if name in owners:
                raise ParseError("line %d: duplicate vertex %r" % (no, name))
            owners[name] = toks[2]
        elif key == "alphabet":
            if alphabet is not None:
                raise ParseError("line %d: duplicate alphabet" % no)
            alphabet = Alphabet(toks[1:])
        else:
            raise ParseError("line %d: unknown directive %r" % (no, key))
    if alphabet is None:
        raise ParseError("missing alphabet line")
    if not owners:
        raise ParseError("arena needs at least one vertex")
    return Arena(alphabet, owners, edges)


def format_arena(arena: Arena) -> str:
    out = ["arena v1", "alphabet " + " ".join(arena.alphabet)]
    for v, owner in arena.owners.items():
        out.append("vertex %s %s" % (v, owner))
    for src, letter, dst in arena.edges:
        out.append("edge %s %s %s" % (src, letter, dst))
    return "\n".join(out) + "\n"


class Game:
    """Arena plus parity objective over the same alphabet."""

    def __init__(self, arena: Arena, condition: Dpa):
        if arena.alphabet != condition.alphabet:
            raise AlphabetMismatch("arena and condition alphabets differ")
        self.arena = arena
        self.condition = condition


class ParityGame:
    """The arena × automaton parity game, numbered and stored flat.

    Node (v, q) is numbered rank(v)·n + q, where rank orders the vertex
    names (`names`) and n is the number of automaton states.  `owners`
    holds each node's owner.  The edges of node i are offsets[i] up to
    offsets[i + 1] of the per-edge lists `target` (a node number),
    `priority` and `letter`, in the arena's out-edge order.

    Zielonka's algorithm runs on the game with each edge split: edge j
    is node N + j (N = `nodes`), carries the edge's priority and moves
    to its target; product nodes carry none.  `src` maps an edge node
    to the product node it leaves, `pred` lists the edge nodes entering
    each product node in ascending order, and `nodes_at` lists the edge
    nodes of each priority in ascending order, with `priorities`
    ascending.
    """

    def __init__(self, names, n, owners, offsets, target, priority, letter):
        self.names = names
        self.n = n
        self.owners = owners
        self.offsets = offsets
        self.target = target
        self.priority = priority
        self.letter = letter
        nodes = self.nodes = len(owners)
        # indexed by node number; product nodes have no source
        self.src = [None] * nodes
        self.src += chain.from_iterable(
            map(repeat, range(nodes), map(sub, offsets[1:], offsets)))
        self.pred = pred = [[] for _ in range(nodes)]
        self.nodes_at = nodes_at = {p: [] for p in set(priority)}
        for e, dst, pri in zip(count(nodes), target, priority):
            pred[dst].append(e)
            nodes_at[pri].append(e)
        self.priorities = sorted(nodes_at)


def product_game(g: Game) -> ParityGame:
    arena, delta, n = g.arena, g.condition.delta, g.condition.n
    if (len(arena.owners) + len(arena.edges)) * n > GAME_CAP:
        raise GameTooLarge("product game exceeds %d nodes" % GAME_CAP)
    names = sorted(arena.owners)
    base = {v: r * n for r, v in enumerate(names)}
    owners, offsets, target, priority, letter = [], [0], [], [], []
    # A vertex's edges over every state depend only on its letters:
    # (successor states, priorities, letters), state-major.
    rows = {}
    for v in names:
        out = arena.out_edges(v)
        letters = tuple(c for c, _dst in out)
        if letters not in rows:
            moves = [row[c] for row in delta for c in letters]
            rows[letters] = ([q2 for q2, _p in moves],
                             [p for _q2, p in moves], letters * n)
        states, pris, lets = rows[letters]
        target += map(add, [base[dst] for _c, dst in out] * n, states)
        priority += pris
        letter += lets
        deg, end = len(letters), offsets[-1]
        offsets += range(end + deg, end + deg * n + 1, deg)
        owners += [arena.owners[v]] * n
    return ParityGame(names, n, owners, offsets, target, priority, letter)


def _attract(pg: ParityGame, region: bytearray, target, player: str,
             choice: list):
    """Player's attractor to `target` (sorted) inside `region`, a mask
    over the split game's nodes: (`region` less the attractor, as a new
    mask; the attracted nodes).  A product node attracted through edge
    node e gets choice[i] = e - N, its edge index, whoever owns it.

    This is the breadth-first attractor of the split game from queue
    `target`.  There a popped product node attracts edge nodes and a
    popped edge node may attract a product node, so each kind changes
    only the other's state, and the result depends on the order within
    each kind, not on how the two interleave.  So an edge node is
    handled as soon as it is attracted, which keeps the edge nodes in
    queue order, those of `target` first, before any product node pops.
    A node is attracted by clearing it in the copy of `region`, so a
    node left set there is in the region and not yet attracted.
    """
    nodes, src, owners, offsets = pg.nodes, pg.src, pg.owners, pg.offsets
    rest = bytearray(region)
    queue = [v for v in target if v < nodes]
    for v in queue:
        rest[v] = 0
    edges_won = []
    attract, push = edges_won.append, queue.append
    # an opponent node's region edges not yet attracted, counted when
    # the first is; 0 before that, as the count never stays at 0
    counts = [0] * nodes
    for edges in chain([target[len(queue):]], map(pg.pred.__getitem__, queue)):
        for e in edges:
            if not rest[e]:
                continue
            rest[e] = 0
            attract(e)
            i = src[e]
            if not rest[i]:
                continue
            if owners[i] != player:
                left = counts[i] or region.count(1, nodes + offsets[i],
                                                 nodes + offsets[i + 1])
                counts[i] = left = left - 1
                if left:
                    continue
            choice[i] = e - nodes
            rest[i] = 0
            push(i)
    queue += edges_won
    return rest, queue


def _zielonka(pg: ParityGame, region: bytearray, size: int, choice: list):
    """(eve nodes, adam nodes) on `region`, a mask over the split game's
    nodes that holds `size` of them.  The two node lists partition the
    region, and each product node its owner wins ends with choice[i] an
    edge it wins by: an attractor and the recursion on what it leaves
    write disjoint nodes, and a node is written again whenever its
    region is decided again.

    Every product node has an edge, and each region here is the whole
    game or a region less an attractor, a trap in which every node keeps
    a successor.  So a nonempty region holds a cycle, and with it an
    edge node: its least priority is an edge priority, read off the
    ascending `nodes_at` lists, and `target` holds edge nodes only.  An
    edge node whose source was attracted while its target was not stays
    in the region left, so its priority can be the next level's least;
    dropping it would change the moves Eve picks.  Recursion only
    descends below the least priority of `region`, so its depth is at
    most the number of distinct priorities, which `Dpa` bounds; the
    opponent's dominions are peeled off in a loop.
    """
    won = [], []  # Eve's nodes, Adam's nodes: indexed by priority parity
    while size:
        for d in pg.priorities:
            at = pg.nodes_at[d]
            target = list(compress(at, map(region.__getitem__, at)))
            if target:
                break
        mine = d % 2
        rest, area = _attract(pg, region, target, (EVE, ADAM)[mine], choice)
        wopp = _zielonka(pg, rest, size - len(area), choice)[1 - mine]
        if not wopp:
            won[mine].extend(compress(range(len(region)), region))
            break
        region, barrier = _attract(pg, region, sorted(wopp),
                                   (EVE, ADAM)[1 - mine], choice)
        won[1 - mine].extend(barrier)
        size -= len(barrier)
    return won


def _solve(pg: ParityGame):
    """(Eve's winning product nodes, the edge index of a winning move
    for every product node its owner wins).  Raises unless every
    split-game node is in exactly one winning region."""
    total = pg.nodes + len(pg.target)
    choice = [-1] * pg.nodes
    eve, adam = _zielonka(pg, bytearray(b"\1") * total, total, choice)
    seen = bytearray(total)
    for v in chain(eve, adam):
        seen[v] = 1
    if len(eve) + len(adam) != total or 0 in seen:
        raise AssertionError("winning regions do not partition the game")
    return {v for v in eve if v < pg.nodes}, choice


class Strategy:
    """Letter-labelled graph of memory states mapped onto arena vertices.

    sigma sends each memory state to the vertex it refines; Eve states
    have exactly one outgoing edge, Adam states mirror all arena moves.
    """

    def __init__(self, states, edges, sigma: dict):
        self.states = tuple(states)
        self.edges = tuple(edges)
        self.sigma = dict(sigma)
        self._out = {}
        for s in self.states:
            if s in self._out:
                raise InvalidStrategy("duplicate state %r" % (s,))
            self._out[s] = []
        for src, letter, dst in self.edges:
            if src not in self._out:
                raise InvalidStrategy("edge from unknown state %r" % (src,))
            if dst not in self._out:
                raise InvalidStrategy("edge to unknown state %r" % (dst,))
            self._out[src].append((letter, dst))

    def out_edges(self, s):
        return self._out[s]

    def memory(self) -> int:
        """Largest number of memory states over a single vertex."""
        per_vertex = {}
        for s in self.states:
            v = self.sigma[s]
            per_vertex[v] = per_vertex.get(v, 0) + 1
        return max(per_vertex.values(), default=0)

    def __repr__(self):
        return "Strategy(%d states over %d vertices)" % (
            len(self.states), len(set(self.sigma.values())))


def validate_strategy(g: Game, s: Strategy) -> None:
    arena = g.arena
    if set(s.sigma) != set(s.states):
        raise InvalidStrategy("sigma domain differs from the state set")
    for st, v in s.sigma.items():
        if v not in arena.owners:
            raise InvalidStrategy("state %r maps to unknown vertex %r"
                                  % (st, v))
    arena_edges = set(arena.edges)
    for src, letter, dst in s.edges:
        if (s.sigma[src], letter, s.sigma[dst]) not in arena_edges:
            raise InvalidStrategy(
                "edge (%s, %s, %s) does not project onto the arena"
                % (src, letter, dst))
    for st in s.states:
        out = s.out_edges(st)
        if not out:
            raise InvalidStrategy("state %r has no outgoing edge" % (st,))
        v = s.sigma[st]
        if arena.owners[v] == EVE:
            if len(out) != 1:
                raise InvalidStrategy(
                    "Eve state %r must have exactly one move" % (st,))
        else:
            mirrored = {(letter, s.sigma[dst]) for letter, dst in out}
            for move in arena.out_edges(v):
                if move not in mirrored:
                    raise InvalidStrategy(
                        "Adam state %r is missing arena move %r" % (st, move))


class GameSolution:
    def __init__(self, winning_region, strategy: Strategy, start_states):
        self.winning_region = winning_region
        self.strategy = strategy
        self.start_states = tuple(start_states)


def solve_game(g: Game) -> GameSolution:
    """Eve's winning region and a winning strategy from it.

    Memory states are the product nodes reachable from the region under
    the positional product strategy, so memory never exceeds the number
    of automaton states.
    """
    pg = product_game(g)
    eve, choice = _solve(pg)
    owners, offsets, letter, target = (pg.owners, pg.offsets, pg.letter,
                                       pg.target)
    q0 = g.condition.initial
    starts = [i for i in range(q0, len(owners), pg.n) if i in eve]

    def moves(i):
        edges = [choice[i]] if owners[i] == EVE else range(offsets[i],
                                                          offsets[i + 1])
        return [(letter[j], target[j]) for j in edges]

    play = reachable_graph(starts, moves)
    if not eve.issuperset(play.nodes):
        raise AssertionError("the product strategy leaves Eve's region")
    # memory state (v, q) is named v@q, the vertex and state names joined
    names, n = pg.names, pg.n
    suffix = [RESERVED + name for name in g.condition.names]
    label = {i: names[i // n] + suffix[i % n] for i in play.nodes}
    edges = [(label[i], c, label[dst])
             for i, out in zip(play.nodes, play.edges) for c, dst in out]
    sigma = {label[i]: names[i // n] for i in play.nodes}
    strategy = Strategy(label.values(), edges, sigma)
    return GameSolution({names[i // n] for i in starts}, strategy,
                        [label[i] for i in starts])


def _wins(g: Game, plays, starts) -> bool:
    """Is every play from `starts` won by Eve?  `plays` is the play
    graph `reachable_graph(starts, moves)`, whose edges are the
    (letter, dst) moves of each state the starts reach.

    When every reached state has one move, `_walk` decides each start's
    play on `automata._one_move_step`, with no product built.  Otherwise
    the plays lose iff the threshold/SCC sweep finds an even-minimum
    cycle of their product with the complement reachable from a start.
    """
    a = g.condition
    edges, succ = plays.edges, plays.succ
    roots = [plays.index[st] for st in starts]
    if all(len(nums) == 1 for nums in succ):
        step = _one_move_step(a, lambda i: (edges[i][0][0], succ[i][0]))
        memo = {}
        return all(_walk((i, a.initial), step, memo) for i in roots)
    n, delta = a.n, a.delta

    # play state i with automaton state q is node i·n + q; the sweep
    # finds only even-minimum cycles and a lost play's is odd, so the
    # product carries the complement's priority, shifted by one
    def moves(node):
        i, q = divmod(node, n)
        row = delta[q]
        return [(c, j * n + row[c][0], (row[c][1] + 1,))
                for (c, _dst), j in zip(edges[i], succ[i])]

    # every node is reached from a root, so a root reaches any bad cycle
    return not nodes_reaching_accepting_cycle(reachable_graph(
        [i * n + a.initial for i in roots], moves))


def _check_starts(starts, known, kind: str) -> list:
    """`starts` read once into a list, so an iterator is not used up.
    Reject a bare string (read letter by letter) and unknown starts."""
    if isinstance(starts, str):
        raise PreconditionViolated(
            "starts must be a list, not the string %r: pass [%r]"
            % (starts, starts))
    starts = list(starts)
    for st in starts:
        if st not in known:
            raise PreconditionViolated("unknown %s %r" % (kind, st))
    return starts


def verify_strategy(g: Game, s: Strategy, starts) -> bool:
    """Does the strategy win from every given start state?"""
    validate_strategy(g, s)
    starts = _check_starts(starts, s.sigma, "start state")
    return _wins(g, reachable_graph(starts, s.out_edges), starts)


def find_positional(g: Game, starts):
    """Smallest-index positional strategy winning from every start, or None.

    Enumerates Eve's choice functions in edge-list order, skipping
    functions that agree on the part of the arena reachable from the
    starts, and tests the plays of each remaining one; only the winning
    choice becomes a `Strategy`, validated once.  More than
    `_CHOICE_CAP` choice functions raise SearchSpaceTooLarge up front.
    """
    arena = g.arena
    starts = _check_starts(starts, arena.owners, "vertex")
    eve_vertices = [v for v in arena.owners if arena.owners[v] == EVE]
    degrees = [len(arena.out_edges(v)) for v in eve_vertices]
    total = prod(degrees)
    if total > _CHOICE_CAP:
        raise SearchSpaceTooLarge(
            "%d positional strategies exceed the cap of %d"
            % (total, _CHOICE_CAP))
    seen_signatures = set()
    for combo in iproduct(*(range(d) for d in degrees)):
        choice = dict(zip(eve_vertices, combo))

        def moves(v):
            out = arena.out_edges(v)
            if arena.owners[v] == EVE:
                return [out[choice[v]]]
            return out

        reach = reachable_graph(starts, moves)
        signature = tuple((v, choice[v]) for v in eve_vertices
                          if v in reach.index)
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        if _wins(g, reach, starts):
            edges = [(v, letter, dst) for v in arena.owners
                     for letter, dst in moves(v)]
            strategy = Strategy(tuple(arena.owners), edges,
                                {v: v for v in arena.owners})
            validate_strategy(g, strategy)
            return strategy
    return None


def random_arena(n_vertices: int, max_out_degree: int, eve_fraction: float,
                 alphabet: Alphabet, seed: int) -> Arena:
    """Random sinkless arena; identical arguments give identical arenas."""
    if n_vertices < 1 or max_out_degree < 1:
        raise PreconditionViolated("arena size parameters must be positive")
    if not 0.0 <= eve_fraction <= 1.0:
        raise PreconditionViolated("eve_fraction must be within [0, 1]")
    rng = random.Random(seed)
    names = ["v%d" % i for i in range(n_vertices)]
    letters = list(alphabet)
    owners = {v: EVE if rng.random() < eve_fraction else ADAM for v in names}
    edges = []
    for v in names:
        for _ in range(rng.randint(1, max_out_degree)):
            edges.append((v, rng.choice(letters), rng.choice(names)))
    return Arena(alphabet, owners, edges)

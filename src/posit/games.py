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
edge-split form, which `ParityGame` also stores), and `solve_game`, the
only entry to the solver, builds the play of the winning choice over
the same numbers, naming memory states only at the end.  The second is
a strategy with the complement automaton, whose reachable accepting
cycles are the plays the strategy loses (`_wins`, which
`verify_strategy` and `find_positional` share).  When every node
of that product has one move, as for any strategy on an Eve-only arena,
the linear walk `cycles._walk` decides it; otherwise the threshold/SCC
sweep of `cycles.nodes_reaching_accepting_cycle` does.  `_one_move_step`
gives the walk's step on a strategy's single moves, so the merge loop of
`reduction.reduce_to_positional` runs the same walk on its working map
and keeps the memo across merges.
`cycles.reachable_graph` builds only plays: that second product, and
the plays of a fixed choice in `solve_game` and `find_positional`.
"""

from itertools import chain, count, product as iproduct, repeat
from operator import add, sub
from math import prod
import random

from .automata import RESERVED, Dpa, _directives
from .cycles import _walk, nodes_reaching_accepting_cycle, reachable_graph
from .errors import (AlphabetMismatch, InvalidStrategy, ParseError,
                     PreconditionViolated, SearchSpaceTooLarge, SinkVertex,
                     UnknownLetter)
from .words import Alphabet

EVE = "E"
ADAM = "A"


class Arena:
    """Sinkless labelled game graph with an owner per vertex."""

    def __init__(self, alphabet: Alphabet, owners: dict, edges):
        self.alphabet = alphabet
        self.owners = dict(owners)
        seen = set()
        self.edges = []
        for src, letter, dst in edges:
            if src not in self.owners or dst not in self.owners:
                raise ParseError("edge endpoint %r is not a vertex"
                                 % (src if src not in self.owners else dst))
            if letter not in alphabet:
                raise UnknownLetter("letter %r not in alphabet" % letter)
            if (src, letter, dst) not in seen:
                seen.add((src, letter, dst))
                self.edges.append((src, letter, dst))
        for v, owner in self.owners.items():
            if owner not in (EVE, ADAM):
                raise ParseError("vertex %r has unknown owner %r" % (v, owner))
            if RESERVED in v:
                raise ParseError("%r is reserved in vertex names" % RESERVED)
        self._out = {v: [] for v in self.owners}
        for src, letter, dst in self.edges:
            self._out[src].append((letter, dst))
        for v, out in self._out.items():
            if not out:
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
    for no, key, rest in _directives(text, "arena v1"):
        if key == "alphabet":
            if alphabet is not None:
                raise ParseError("line %d: duplicate alphabet" % no)
            alphabet = Alphabet(rest)
        elif key == "vertex":
            if len(rest) != 2:
                raise ParseError("line %d: vertex takes name and owner" % no)
            name, owner = rest
            if name in owners:
                raise ParseError("line %d: duplicate vertex %r" % (no, name))
            owners[name] = owner
        elif key == "edge":
            if len(rest) != 3:
                raise ParseError(
                    "line %d: edge takes source letter target" % no)
            src, letter, dst = rest
            edges.append((src, letter, dst))
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
    each product node in ascending order, and `nodes_at` holds the edge
    nodes of each priority, with `priorities` ascending.
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
        self.nodes_at = nodes_at = {p: set() for p in set(priority)}
        for e, dst, pri in zip(count(nodes), target, priority):
            pred[dst].append(e)
            nodes_at[pri].add(e)
        self.priorities = sorted(nodes_at)

    def node(self, i):
        """The (vertex, state) pair numbered i."""
        return self.names[i // self.n], i % self.n


def product_game(g: Game) -> ParityGame:
    arena, delta, n = g.arena, g.condition.delta, g.condition.n
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


def _attract(pg: ParityGame, region: set, target, player: str):
    """Player's attractor to `target` (sorted) inside `region`, with the
    chosen edge node of each newly attracted Eve product node.

    This is the breadth-first attractor of the split game from queue
    `target`.  There a popped product node attracts edge nodes and a
    popped edge node may attract a product node, so each kind changes
    only the other's state, and the result depends on the order within
    each kind, not on how the two interleave.  So an edge node is
    handled as soon as it is attracted, which keeps the edge nodes in
    queue order, those of `target` first, before any product node pops.
    """
    nodes, src, owners, offsets = pg.nodes, pg.src, pg.owners, pg.offsets
    queue = [v for v in target if v < nodes]
    acc = set(queue)
    attract, push = acc.add, queue.append
    choice = {}
    counts = {}
    for edges in chain([target[len(queue):]], map(pg.pred.__getitem__, queue)):
        for e in edges:
            if e in acc or e not in region:
                continue
            attract(e)
            i = src[e]
            if i in acc or i not in region:
                continue
            if owners[i] == player:
                if player == EVE:
                    choice[i] = e
            else:
                left = counts.get(i)
                if left is None:
                    left = sum(map(region.__contains__,
                                   range(nodes + offsets[i],
                                         nodes + offsets[i + 1])))
                counts[i] = left = left - 1
                if left:
                    continue
            attract(i)
            push(i)
    return acc, choice


def _zielonka(pg: ParityGame, region: set):
    """(eve nodes, adam nodes, chosen edge node per winning Eve product
    node).

    Every product node has an edge, and each region here is the whole
    game or a region less an attractor, a trap in which every node keeps
    a successor.  So a nonempty region holds a cycle, and with it an
    edge node: its least priority is an edge priority, and `target`
    holds edge nodes only.  Recursion only descends below the least
    priority of `region`, so its depth is at most the number of distinct
    priorities; the opponent's dominions are peeled off in a loop.
    """
    won = {EVE: set(), ADAM: set()}
    choice = {}
    while region:
        d = next(p for p in pg.priorities
                 if not region.isdisjoint(pg.nodes_at[p]))
        player, other = (EVE, ADAM) if d % 2 == 0 else (ADAM, EVE)
        target = sorted(region.intersection(pg.nodes_at[d]))
        area, achoice = _attract(pg, region, target, player)
        we, wa, inner = _zielonka(pg, region - area)
        wopp = wa if player == EVE else we
        if not wopp:
            choice.update(inner)
            choice.update(achoice)
            won[player] |= region
            break
        barrier, bchoice = _attract(pg, region, sorted(wopp), other)
        if other == EVE:
            choice.update((v, e) for v, e in inner.items() if v in wopp)
        choice.update(bchoice)
        won[other] |= barrier
        region = region - barrier
    return won[EVE], won[ADAM], choice


def _solve(pg: ParityGame):
    """(Eve's winning product nodes, the edge index each Eve node of
    them plays)."""
    total = pg.nodes + len(pg.target)
    eve, adam, choice = _zielonka(pg, set(range(total)))
    if len(eve) + len(adam) != total:
        raise AssertionError("winning regions do not partition the game")
    return (eve.intersection(range(pg.nodes)),
            {i: e - pg.nodes for i, e in choice.items()})


class Strategy:
    """Letter-labelled graph of memory states mapped onto arena vertices.

    sigma sends each memory state to the vertex it refines; Eve states
    have exactly one outgoing edge, Adam states mirror all arena moves.
    """

    def __init__(self, states, edges, sigma: dict):
        self.states = tuple(states)
        self.edges = tuple(edges)
        self.sigma = dict(sigma)
        self._out = {s: [] for s in self.states}
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


def _mstate(g: Game, v, q) -> str:
    return "%s%s%s" % (v, RESERVED, g.condition.names[q])


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
    if not eve.issuperset(play):
        raise AssertionError("the product strategy leaves Eve's region")
    label = {i: _mstate(g, *pg.node(i)) for i in play}
    edges = [(label[i], c, label[dst])
             for i, out in play.items() for c, dst in out]
    sigma = {label[i]: pg.node(i)[0] for i in play}
    strategy = Strategy(label.values(), edges, sigma)
    return GameSolution({pg.node(i)[0] for i in starts}, strategy,
                        [label[i] for i in starts])


def _one_move_step(a: Dpa, move):
    """`_walk`'s step on the play × complement graph, for the condition
    `a`, of a strategy whose state st has the single move
    `move(st) -> (letter, dst)`."""
    delta = a.delta

    def step(node):
        letter, dst = move(node[0])
        q2, pri = delta[node[1]][letter]
        return (dst, q2), pri + 1  # the complement's priority
    return step


def _wins(g: Game, out_edges, starts) -> bool:
    """Is every play from `starts` that follows `out_edges` won by Eve?

    The plays lose iff an even-minimum cycle of their product with the
    complement is reachable from a start.  When every product node has
    one move, each start walks into exactly one cycle and `_walk`
    decides them all.  Otherwise the threshold/SCC sweep does.
    """
    delta = g.condition.delta

    def moves(node):
        row = delta[node[1]]
        out = []
        for letter, dst in out_edges(node[0]):
            q2, pri = row[letter]
            # the complement's priority, shifted by one
            out.append((letter, (dst, q2), (pri + 1,)))
        return out

    roots = [(st, g.condition.initial) for st in starts]
    graph = reachable_graph(roots, moves)
    if any(len(edges) != 1 for edges in graph.values()):
        bad = nodes_reaching_accepting_cycle(graph)
        return not any(root in bad for root in roots)
    step = {node: (edges[0][1], edges[0][2][0])
            for node, edges in graph.items()}
    memo = {}
    return all(_walk(root, step.__getitem__, memo) for root in roots)


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
    return _wins(g, s.out_edges, starts)


def find_positional(g: Game, starts, cap: int = 10 ** 6):
    """Smallest-index positional strategy winning from every start, or None.

    Enumerates Eve's choice functions in edge-list order, skipping
    functions that agree on the part of the arena reachable from the
    starts, and tests the plays of each remaining one; only the winning
    choice becomes a `Strategy`, validated once.
    """
    arena = g.arena
    starts = _check_starts(starts, arena.owners, "vertex")
    eve_vertices = [v for v in arena.owners if arena.owners[v] == EVE]
    degrees = [len(arena.out_edges(v)) for v in eve_vertices]
    total = prod(degrees)
    if total > cap:
        raise SearchSpaceTooLarge(
            "%d positional strategies exceed the cap of %d" % (total, cap))
    seen_signatures = set()
    for combo in iproduct(*(range(d) for d in degrees)):
        choice = dict(zip(eve_vertices, combo))

        def moves(v):
            out = arena.out_edges(v)
            if arena.owners[v] == EVE:
                return [out[choice[v]]]
            return out

        reach = reachable_graph(starts, moves)
        signature = tuple((v, choice[v]) for v in eve_vertices if v in reach)
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        if _wins(g, moves, starts):
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

"""Two-player games on finite arenas with parity-automaton objectives.

An arena is a sinkless directed graph with letter-labelled edges and a
vertex owner (Eve or Adam).  A game pairs an arena with an automaton
over the same alphabet; a play is winning for Eve iff the sequence of
letters it produces is accepted.  Strategies are letter-labelled graphs
mapped onto the arena: memory states refine arena vertices, so the
number of memory states per vertex bounds the memory needed.

Two products with the condition are built here: the arena with the
automaton, a parity game that Zielonka's algorithm solves
(`product_game`), and a strategy with the complement automaton, whose
reachable accepting cycles are the plays the strategy loses (`_wins`,
which `verify_strategy` and `find_positional` share).  When every node
of that product has one move, as for any strategy on an Eve-only arena,
the linear walk `cycles._walk` decides it; otherwise the threshold/SCC
sweep of `cycles.nodes_reaching_accepting_cycle` does.  `_one_move_step`
gives the walk's step on a strategy's single moves, so the merge loop of
`reduction.reduce_to_positional` runs the same walk on its working map
and keeps the memo across merges.
Both, and the plays of a fixed choice in `solve_game` and
`find_positional`, are built by `cycles.reachable_graph`.
"""

from collections import deque
from itertools import product as iproduct
from math import prod
import random

from .automata import RESERVED, Dpa
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
    lines = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((no, line.split()))
    if not lines or lines[0][1] != ["arena", "v1"]:
        raise ParseError("expected 'arena v1' header")
    alphabet = None
    owners = {}
    edges = []
    for no, toks in lines[1:]:
        key, rest = toks[0], toks[1:]
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
    """Explicit parity game: owners per node, priorities on edges."""

    def __init__(self, owners: dict, edges: dict):
        self.owners = owners
        self.edges = edges


def product_game(g: Game) -> ParityGame:
    arena, delta = g.arena, g.condition.delta

    def moves(node):
        row = delta[node[1]]
        out = []
        for letter, dst in arena.out_edges(node[0]):
            q2, pri = row[letter]
            out.append((letter, (dst, q2), pri))
        return out

    edges = reachable_graph(
        [(v, q) for v in arena.owners for q in range(g.condition.n)], moves)
    return ParityGame({node: arena.owners[node[0]] for node in edges}, edges)


class _Expanded:
    """Vertex-priority parity game obtained by splitting each edge.

    Edge nodes carry the edge priority and belong to Adam (they have a
    single move, so ownership is irrelevant); original nodes carry a
    neutral priority above every edge priority.
    """

    def __init__(self, pg: ParityGame):
        self.orig = sorted(pg.owners)
        index = {v: i for i, v in enumerate(self.orig)}
        maxpri = 0
        for moves in pg.edges.values():
            for _c, _d, pri in moves:
                maxpri = max(maxpri, pri)
        self.owner = []
        self.pri = []
        self.succ = []
        self.edge_info = []
        for v in self.orig:
            self.owner.append(pg.owners[v])
            self.pri.append(maxpri + 1)
            self.succ.append([])
            self.edge_info.append(None)
        for i, v in enumerate(self.orig):
            for k, (_c, dst, pri) in enumerate(pg.edges[v]):
                nid = len(self.owner)
                self.owner.append(ADAM)
                self.pri.append(pri)
                self.succ.append([index[dst]])
                self.edge_info.append((i, k))
                self.succ[i].append(nid)
        self.pred = [[] for _ in self.owner]
        for u, outs in enumerate(self.succ):
            for w in outs:
                self.pred[w].append(u)


def _attract(exp: _Expanded, region: set, target, player: str):
    """Player's attractor to `target` inside `region`, with a chosen
    successor for each newly attracted player node."""
    acc = set(target)
    choice = {}
    counts = {}
    queue = deque(sorted(target))
    while queue:
        v = queue.popleft()
        for u in exp.pred[v]:
            if u not in region or u in acc:
                continue
            if exp.owner[u] == player:
                acc.add(u)
                choice[u] = v
                queue.append(u)
            else:
                if u not in counts:
                    counts[u] = sum(1 for s in exp.succ[u] if s in region)
                counts[u] -= 1
                if counts[u] == 0:
                    acc.add(u)
                    queue.append(u)
    return acc, choice


def _zielonka(exp: _Expanded, region: set):
    """(eve nodes, adam nodes, chosen successor per winning owned node).

    Recursion only descends below the least priority of `region`, so its
    depth is at most the number of distinct priorities; the opponent's
    dominions are peeled off in a loop.
    """
    won = {EVE: set(), ADAM: set()}
    choice = {}
    while region:
        d = min(exp.pri[v] for v in region)
        player = EVE if d % 2 == 0 else ADAM
        other = ADAM if player == EVE else EVE
        target = sorted(v for v in region if exp.pri[v] == d)
        area, achoice = _attract(exp, region, target, player)
        we, wa, sub = _zielonka(exp, region - area)
        wopp = wa if player == EVE else we
        if not wopp:
            for v in area:
                if exp.owner[v] == player and v not in achoice and v not in sub:
                    achoice[v] = next(s for s in exp.succ[v] if s in region)
            choice.update(sub)
            choice.update(achoice)
            won[player] |= region
            break
        barrier, bchoice = _attract(exp, region, sorted(wopp), other)
        choice.update((v, sub[v]) for v in wopp
                      if exp.owner[v] == other and v in sub)
        choice.update(bchoice)
        won[other] |= barrier
        region = region - barrier
    return won[EVE], won[ADAM], choice


class SolveResult:
    """Winning regions of a parity game plus positional move choices.

    eve_choice maps an Eve node inside her region to the index of the
    edge to play.
    """

    def __init__(self, eve_region, adam_region, eve_choice):
        self.eve_region = eve_region
        self.adam_region = adam_region
        self.eve_choice = eve_choice


def solve_parity(pg: ParityGame) -> SolveResult:
    exp = _Expanded(pg)
    eve, adam, choice = _zielonka(exp, set(range(len(exp.owner))))
    if len(eve) + len(adam) != len(exp.owner):
        raise AssertionError("winning regions do not partition the game")
    eve_region = set()
    adam_region = set()
    eve_choice = {}
    for i, v in enumerate(exp.orig):
        if i in eve:
            eve_region.add(v)
            if exp.owner[i] == EVE:
                _vi, k = exp.edge_info[choice[i]]
                eve_choice[v] = k
        else:
            adam_region.add(v)
    return SolveResult(eve_region, adam_region, eve_choice)


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
    res = solve_parity(pg)
    q0 = g.condition.initial
    region = sorted(v for v in g.arena.owners if (v, q0) in res.eve_region)

    def moves(node):
        out = pg.edges[node]
        if g.arena.owners[node[0]] == EVE:
            return [out[res.eve_choice[node]]]
        return out

    play = reachable_graph([(v, q0) for v in region], moves)
    if not res.eve_region.issuperset(play):
        raise AssertionError("the product strategy leaves Eve's region")
    edges = [(_mstate(g, *node), letter, _mstate(g, *dst))
             for node, out in play.items() for letter, dst, _pri in out]
    states = [_mstate(g, *node) for node in play]
    sigma = {_mstate(g, *node): node[0] for node in play}
    strategy = Strategy(states, edges, sigma)
    return GameSolution(set(region), strategy,
                        [_mstate(g, v, q0) for v in region])


def _one_move_step(a: Dpa, move):
    """`_walk`'s step on the play × complement graph, for the condition
    `a`, of a strategy whose state st has the single move
    `move(st) -> (letter, dst)`."""
    delta = a.delta

    def step(node):
        letter, dst = move(node[0])
        q2, pri = delta[node[1]][letter]
        return (dst, q2), pri + 1  # the complement_shift priority
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
            # the complement_shift priority
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


def _check_starts(starts, known, kind: str) -> None:
    """Reject a bare string (it would be read letter by letter) and
    starts outside `known`."""
    if isinstance(starts, str):
        raise PreconditionViolated(
            "starts must be a list, not the string %r: pass [%r]"
            % (starts, starts))
    for st in starts:
        if st not in known:
            raise PreconditionViolated("unknown %s %r" % (kind, st))


def verify_strategy(g: Game, s: Strategy, starts) -> bool:
    """Does the strategy win from every given start state?"""
    validate_strategy(g, s)
    _check_starts(starts, s.sigma, "start state")
    return _wins(g, s.out_edges, starts)


def find_positional(g: Game, starts, cap: int = 10 ** 6):
    """Smallest-index positional strategy winning from every start, or None.

    Enumerates Eve's choice functions in edge-list order, skipping
    functions that agree on the part of the arena reachable from the
    starts, and tests the plays of each remaining one; only the winning
    choice becomes a `Strategy`, validated once.
    """
    arena = g.arena
    _check_starts(starts, arena.owners, "vertex")
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

"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive.  Semantic predicates read the
lasso structure directly; the simulator decides membership by plain
unrolling instead of cycle detection, and `member_from` by whole
periods from any state, where the package walks; the brute property checks
enumerate their bounded domains literally.  Transition tables are
written out again by hand so a typo in either copy shows up.
"""

import random
from collections import deque, namedtuple
from itertools import product
from operator import ge
from unittest import mock

from posit import (Alphabet, Comparison, Dpa, IncomparableLassos,
                   InvalidPlan, LassoWord, MergeBrokeWinning, MergePlan,
                   NotEveOnly, ParseError, PositionalityVerdict,
                   PreconditionViolated, PriorityMonoid, PropertyReport,
                   SinkVertex, Strategy, UnknownLetter, Witness1, Witness2,
                   Witness3, check_property1, check_property2,
                   check_property3, prepend, reachable_states,
                   validate_strategy, verify_strategy)
from posit import positionality
from posit.automata import (MAX_PRIORITY, RESERVED, _number,
                            _one_move_step, _state_names)
from posit.cycles import _walk
from posit.gadgets import certify
from posit.games import _check_starts

EVE = "E"
ADAM = "A"

# ---------------------------------------------------------------------------
# semantic membership predicates on the lasso structure

def _cyclic_pairs(seq):
    return list(zip(seq, seq[1:] + seq[:1])) if seq else []


def sem_buchi_a(w: LassoWord) -> bool:
    return "a" in w.period


def sem_fin_a(w: LassoWord) -> bool:
    return "a" not in w.period


def sem_onea(w: LassoWord) -> bool:
    return "a" not in w.period and "a" in w.prefix


def sem_infab(w: LassoWord) -> bool:
    return "a" in w.period and "b" in w.period


def sem_rabin(w: LassoWord) -> bool:
    return "b" not in w.period and "a" in w.period


def sem_res(w: LassoWord) -> bool:
    first = (w.prefix + w.period)[0]
    if first == "a":
        return "b" in w.period
    if first == "b":
        return "c" in w.period
    return False


def sem_ex3(w: LassoWord) -> bool:
    core = [c for c in w.period if c != "c"]
    pairs = _cyclic_pairs(core)
    return ("a", "a") in pairs and ("b", "b") not in pairs


# ---------------------------------------------------------------------------
# membership by unrolled simulation over hand-copied tables

TABLES = {
    "buchi_a": ({(0, "a"): (0, 0), (0, "b"): (0, 1)}, 0, 1),
    "fin_a": ({(0, "a"): (0, 1), (0, "b"): (0, 2)}, 0, 1),
    "onea": ({(0, "a"): (1, 1), (0, "b"): (0, 1),
              (1, "a"): (1, 1), (1, "b"): (1, 2)}, 0, 2),
    "infab": ({(0, "a"): (1, 0), (0, "b"): (0, 1),
               (1, "a"): (1, 1), (1, "b"): (0, 0)}, 0, 2),
    "rabin": ({(0, "a"): (0, 2), (0, "b"): (0, 1), (0, "c"): (0, 3)}, 0, 1),
    "w2": ({(0, "a"): (0, 1), (0, "b"): (1, 0),
            (0, "c"): (0, 2), (0, "d"): (0, 2),
            (1, "a"): (1, 1), (1, "b"): (1, 2),
            (1, "c"): (0, 0), (1, "d"): (1, 2)}, 0, 2),
    "res": ({("s", "a"): ("A", 1), ("s", "b"): ("B", 1), ("s", "c"): ("D", 1),
             ("A", "a"): ("A", 1), ("A", "b"): ("A", 0), ("A", "c"): ("A", 1),
             ("B", "a"): ("B", 1), ("B", "b"): ("B", 1), ("B", "c"): ("B", 0),
             ("D", "a"): ("D", 1), ("D", "b"): ("D", 1), ("D", "c"): ("D", 1)},
            "s", 4),
    "ex3": ({(0, "a"): (1, 3), (0, "b"): (2, 3), (0, "c"): (0, 3),
             (1, "a"): (1, 2), (1, "b"): (2, 3), (1, "c"): (1, 3),
             (2, "a"): (1, 3), (2, "b"): (2, 1), (2, "c"): (2, 3)}, 0, 3),
}

# the structural predicates; w2 has no short one, so it uses the simulator
SEMANTICS = {
    "buchi_a": sem_buchi_a,
    "fin_a": sem_fin_a,
    "onea": sem_onea,
    "infab": sem_infab,
    "rabin": sem_rabin,
    "res": sem_res,
    "ex3": sem_ex3,
    "w2": lambda w: sim_member("w2", w),
}

_WINDOW = {1: 1, 2: 2, 3: 6, 4: 12}


def sim_member(name: str, w: LassoWord) -> bool:
    """Verdict by unrolling: warm up for n_states periods, then take the
    minimum priority over lcm(1..n_states) further periods."""
    table, state, n_states = TABLES[name]
    for c in w.prefix:
        state, _ = table[(state, c)]
    for _ in range(n_states):
        for c in w.period:
            state, _ = table[(state, c)]
    best = None
    for _ in range(_WINDOW[n_states]):
        for c in w.period:
            state, pri = table[(state, c)]
            if best is None or pri < best:
                best = pri
    return best % 2 == 0


# ---------------------------------------------------------------------------
# membership by whole periods, from any state of a Dpa

def member_from(a: Dpa, frm: int, w: LassoWord) -> bool:
    """Does the run on w from `frm` satisfy min-even parity?

    Runs whole periods until the entry state repeats; the verdict is the
    parity of the least block minimum on the repeating part.  The first
    letter outside the alphabet, prefix first, raises UnknownLetter.
    """
    for c in w.prefix + w.period:
        if c not in a.alphabet:
            raise UnknownLetter("letter %r not in alphabet" % c)
    state = frm
    for c in w.prefix:
        state = a.delta[state][c][0]
    seen = {}
    blocks = []
    while state not in seen:
        seen[state] = len(blocks)
        block_min = None
        for c in w.period:
            state, pri = a.delta[state][c]
            if block_min is None or pri < block_min:
                block_min = pri
        blocks.append(block_min)
    return min(blocks[seen[state]:]) % 2 == 0


def complement_shift(a: Dpa) -> Dpa:
    """Same structure with all priorities shifted by one, flipping parity."""
    delta = [{c: (tgt, pri + 1) for c, (tgt, pri) in row.items()}
             for row in a.delta]
    return Dpa(a.alphabet, a.names, a.initial, delta)


# ---------------------------------------------------------------------------
# the lasso walk and the accepting-cycle sweep on their first node layout:
# one walk node per (letter position, state), DFS state in dicts keyed by
# the graph's own nodes

def ref_lasso_mask(a: Dpa, w: LassoWord) -> int:
    """Bit r set iff w is accepted from state r, by `cycles._walk` on the
    (letter position, state) nodes of the runs: position i reads letter i
    of the prefix then the period, and the last letter leads back to the
    period's first position.  The first letter outside the alphabet,
    prefix first, raises UnknownLetter."""
    word, loop = w.prefix + w.period, len(w.prefix)
    for c in word:
        if c not in a.alphabet:
            raise UnknownLetter("letter %r not in alphabet" % c)
    moves = [(c, i) for i, c in enumerate(word, 1)]
    moves[-1] = (word[-1], loop)
    step, memo = _one_move_step(a, moves.__getitem__), {}
    return sum(1 << r for r in range(a.n) if _walk((0, r), step, memo))


def ref_tarjan_scc(order, succ):
    """Strongly connected components, iteratively; DFS roots follow `order`."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = 0
    for root in order:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    pushed = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


# The sweep as it ran on graphs keyed by their nodes: a dict mapping
# each node to its (letter, successor, priorities) edges, in the order
# breadth-first search from the roots discovers the nodes.

def ref_reachable(roots, graph):
    """The part of the dict graph `graph` reachable from `roots`, as a
    dict in breadth-first order; repeated roots count once."""
    sub = dict.fromkeys(roots)
    queue = list(sub)
    for node in queue:
        sub[node] = graph[node]
        for edge in graph[node]:
            if edge[1] not in sub:
                sub[edge[1]] = None
                queue.append(edge[1])
    return sub


def _qualifies(comp, graph, threshold):
    """Internal edges of `comp` at or above `threshold`, or None.

    Returns the edge list only when every coordinate's threshold is met
    exactly by at least one internal edge.
    """
    compset = set(comp)
    internal = []
    exact = [False] * len(threshold)
    for v in comp:
        for c, d, pris in graph[v]:
            if d in compset and all(map(ge, pris, threshold)):
                internal.append((v, c, d, pris))
                for i, t in enumerate(threshold):
                    if pris[i] == t:
                        exact[i] = True
    if internal and all(exact):
        return internal
    return None


def ref_accepting_components(graph):
    """Each (threshold, component) that `_qualifies`, even threshold
    tuples ascending, and for each the components of `ref_tarjan_scc`
    with DFS roots in the graph's order; every node of `graph` counts."""
    pris = [p for edges in graph.values() for _c, _d, p in edges]
    axes = [sorted({p for p in column if p % 2 == 0}) for column in zip(*pris)]
    if not axes or not all(axes):
        return
    for threshold in product(*axes):
        def succ(v):
            return [d for _c, d, p in graph[v]
                    if all(x >= t for x, t in zip(p, threshold))]
        for comp in ref_tarjan_scc(graph, succ):
            if _qualifies(comp, graph, threshold):
                yield threshold, comp


def _path_among(graph, allowed, threshold, frm, to):
    """Shortest path from `frm` to `to` using allowed nodes and edges at or
    above `threshold`; returns [(letter, pris), ...]. Assumes one exists."""
    if frm == to:
        return []
    parent = {frm: None}
    queue = deque([frm])
    while queue:
        v = queue.popleft()
        for c, d, pris in graph[v]:
            if d in allowed and d not in parent and all(map(ge, pris, threshold)):
                parent[d] = (v, c, pris)
                if d == to:
                    out = []
                    while parent[d] is not None:
                        v2, c2, pr2 = parent[d]
                        out.append((c2, pr2))
                        d = v2
                    out.reverse()
                    return out
                queue.append(d)
    raise AssertionError("no path inside a strongly connected component")


def _lasso_through(graph, threshold, comp, internal):
    """The lasso from the first node of `graph` through the component
    `comp` that `_qualifies` at `threshold` with the `internal` edges:
    the cycle is entered at the first node of `comp` and meets every
    coordinate's threshold exactly, and the access path is a shortest
    path there."""
    compset = set(comp)
    entry = comp[0]
    # no priority is negative, so the zero threshold keeps every edge
    prefix = [c for c, _p in
              _path_among(graph, graph, (0,) * len(threshold),
                          next(iter(graph)), entry)]
    covered = [False] * len(threshold)

    def mark(pris):
        for i, t in enumerate(threshold):
            if pris[i] == t:
                covered[i] = True

    cycle = []
    cur = entry
    for i in range(len(threshold)):
        if covered[i]:
            continue
        v2, c2, d2, pris2 = next(
            e for e in internal if e[3][i] == threshold[i])
        for c3, pris3 in _path_among(graph, compset, threshold, cur, v2):
            cycle.append(c3)
            mark(pris3)
        if covered[i]:
            cur = v2
            continue
        cycle.append(c2)
        mark(pris2)
        cur = d2
    for c3, _pris3 in _path_among(graph, compset, threshold, cur, entry):
        cycle.append(c3)
    return LassoWord("".join(prefix), "".join(cycle))


def ref_accepting_lasso_from(graph, start):
    """`accepting_lasso_from` on a copy of the part of `graph` that
    `start` reaches: the first component of `ref_accepting_components`
    there, its nodes put in the copy's breadth-first order."""
    sub = ref_reachable([start], graph)
    found = next(ref_accepting_components(sub), None)
    if found is None:
        return None
    threshold, comp = found
    compset = set(comp)
    comp = [v for v in sub if v in compset]
    return _lasso_through(sub, threshold, comp,
                          _qualifies(comp, sub, threshold))


def ref_nodes_reaching_accepting_cycle(graph):
    """The nodes with a node of some `ref_accepting_components`
    component among those they reach, one search per node."""
    cores = {v for _t, comp in ref_accepting_components(graph) for v in comp}
    return {v for v in graph if cores & set(ref_reachable([v], graph))}


def moves_of(graph):
    """`reachable_graph`'s moves reading a built `cycles.Graph`: the
    edges of a node as the graph holds them."""
    return lambda node: graph.edges[graph.index[node]]


def as_dict_graph(graph, key=lambda node: node):
    """A `cycles.Graph` as the dict graph the references read: each node,
    named by `key`, mapped to its edges with their successors named so
    too, in the graph's own order."""
    return {key(node): [(edge[0], key(graph.nodes[j])) + edge[2:]
                        for edge, j in zip(out, nums)]
            for node, out, nums in zip(graph.nodes, graph.edges, graph.succ)}


# ---------------------------------------------------------------------------
# lasso words as the infinite words they denote, automata as text

def _primitive_root(v: str) -> str:
    n = len(v)
    for d in range(1, n + 1):
        if n % d == 0 and v == v[:d] * (n // d):
            return v[:d]
    return v


def normalize(w: LassoWord) -> LassoWord:
    """Canonical form: primitive period, then the shortest prefix.

    While the prefix ends with the same letter as the period, that letter is
    rotated into the period; both steps preserve the denoted infinite word.
    """
    prefix, period = w.prefix, _primitive_root(w.period)
    while prefix and prefix[-1] == period[-1]:
        prefix, period = prefix[:-1], period[-1] + period[:-1]
    return LassoWord(prefix, period)


def unroll(w: LassoWord, n: int) -> str:
    """First n letters of the denoted infinite word."""
    if n <= len(w.prefix):
        return w.prefix[:n]
    need = n - len(w.prefix)
    reps = -(-need // len(w.period))
    return w.prefix + (w.period * reps)[:need]


def lasso_equal(w1: LassoWord, w2: LassoWord) -> bool:
    """Do two lassos denote the same infinite word?"""
    return normalize(w1) == normalize(w2)


def format_dpa(a: Dpa) -> str:
    out = ["dpa v1", "alphabet " + " ".join(a.alphabet)]
    if a.names == tuple(str(i) for i in range(a.n)):
        out.append("states %d" % a.n)
    else:
        out.append("states " + " ".join(a.names))
    out.append("initial " + a.names[a.initial])
    for q in range(a.n):
        for c in a.alphabet:
            tgt, pri = a.delta[q][c]
            out.append("trans %s %s %s %d" % (a.names[q], c, a.names[tgt], pri))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# the text formats read the plain way: every line listed and sliced, then
# each directive and each edge checked on its own.  The count and name
# helpers `_number` and `_state_names` are the package's.

RefDpa = namedtuple("RefDpa", "alphabet names initial delta")
RefArena = namedtuple("RefArena", "alphabet owners edges out")


def ref_directives(text: str, header: str):
    lines = []
    for no, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            lines.append((no, toks))
    if not lines or lines[0][1] != header.split():
        raise ParseError("expected '%s' header" % header)
    return [(no, toks[0], toks[1:]) for no, toks in lines[1:]]


def ref_parse_dpa(text: str) -> RefDpa:
    """`parse_dpa` with the `Dpa` constructor's completeness check,
    as a plain record: letters, names, initial state, delta rows."""
    alphabet = None
    states = None
    initial_tok = None
    trans = []
    for no, key, rest in ref_directives(text, "dpa v1"):
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
    for name, row in zip(names, delta):
        for c in alphabet:
            if c not in row:
                raise ParseError(
                    "state %s has no transition on %r" % (name, c))
    return RefDpa(alphabet.letters, names, ids[initial_tok], delta)


def ref_parse_arena(text: str) -> RefArena:
    """`parse_arena` with the `Arena` constructor's checks, one edge at
    a time, as a plain record: letters, owners, edges with repeats
    dropped, and each vertex's out-edges."""
    alphabet = None
    owners = {}
    raw_edges = []
    for no, key, rest in ref_directives(text, "arena v1"):
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
            raw_edges.append((src, letter, dst))
        else:
            raise ParseError("line %d: unknown directive %r" % (no, key))
    if alphabet is None:
        raise ParseError("missing alphabet line")
    if not owners:
        raise ParseError("arena needs at least one vertex")
    seen = set()
    edges = []
    for src, letter, dst in raw_edges:
        if src not in owners or dst not in owners:
            raise ParseError("edge endpoint %r is not a vertex"
                             % (src if src not in owners else dst))
        if letter not in alphabet:
            raise UnknownLetter("letter %r not in alphabet" % letter)
        if (src, letter, dst) not in seen:
            seen.add((src, letter, dst))
            edges.append((src, letter, dst))
    for v, owner in owners.items():
        if owner not in (EVE, ADAM):
            raise ParseError("vertex %r has unknown owner %r" % (v, owner))
        if RESERVED in v:
            raise ParseError("%r is reserved in vertex names" % RESERVED)
    out = {v: [] for v in owners}
    for src, letter, dst in edges:
        out[src].append((letter, dst))
    for v, moves in out.items():
        if not moves:
            raise SinkVertex("vertex %r has no outgoing edge" % v)
    return RefArena(alphabet.letters, owners, edges, out)


# ---------------------------------------------------------------------------
# enumeration helpers

def words_up_to(alphabet, max_len: int, min_len: int = 0):
    letters = list(alphabet)
    out = []
    for n in range(min_len, max_len + 1):
        for tup in product(letters, repeat=n):
            out.append("".join(tup))
    return out


def lassos_up_to(alphabet, max_prefix: int, max_period: int):
    out = []
    for pre in words_up_to(alphabet, max_prefix):
        for per in words_up_to(alphabet, max_period, min_len=1):
            out.append(LassoWord(pre, per))
    return out


def random_lassos(alphabet, count: int, seed: int,
                  max_prefix: int = 4, max_period: int = 4):
    rng = random.Random(seed)
    letters = list(alphabet)
    out = []
    for _ in range(count):
        pre = "".join(rng.choice(letters)
                      for _ in range(rng.randint(0, max_prefix)))
        per = "".join(rng.choice(letters)
                      for _ in range(rng.randint(1, max_period)))
        out.append(LassoWord(pre, per))
    return out


# ---------------------------------------------------------------------------
# brute-force property checks (membership goes through member_from, which
# the automata tests validate against the predicates above first)

def _advance(a, state, word):
    for c in word:
        state = a.delta[state][c][0]
    return state


def brute_property1(a, lassos):
    """State pairs whose residuals are incomparable on the given lassos."""
    states = sorted(reachable_states(a))
    table = {p: [member_from(a, p, w) for w in lassos] for p in states}
    failing = []
    for i, p in enumerate(states):
        for q in states[i + 1:]:
            pq = all(y for x, y in zip(table[p], table[q]) if x)
            qp = all(x for x, y in zip(table[p], table[q]) if y)
            if not pq and not qp:
                failing.append((p, q))
    return failing


def brute_property2(a, max_u, max_v, lassos):
    """Triples u, v, w with u v w accepted, u v^omega and u w rejected.

    Factored by the state u reaches, which decides the outcome; the
    triples come out in plain u, v, lasso enumeration order.
    """
    states = sorted(reachable_states(a))
    acc = {p: {w for w in lassos if member_from(a, p, w)} for p in states}
    vs = words_up_to(a.alphabet, max_v, min_len=1)
    bad = {}
    for p in states:
        for v in vs:
            if member_from(a, p, LassoWord("", v)):
                continue
            q = _advance(a, p, v)
            ws = [w for w in lassos if w in acc[q] and w not in acc[p]]
            if ws:
                bad[p, v] = ws
    out = []
    for u in words_up_to(a.alphabet, max_u):
        su = _advance(a, a.initial, u)
        for v in vs:
            for w in bad.get((su, v), ()):
                out.append((u, v, w))
    return out


def brute_property3(a, max_u, max_v):
    """Triples u, v, v' with u (v v')^omega accepted and both halves
    rejected.  Factored by the state u reaches, like brute_property2."""
    loops = words_up_to(a.alphabet, max_v, min_len=1)
    bad = {}
    for p in sorted(reachable_states(a)):
        rejecting = [v for v in loops
                     if not member_from(a, p, LassoWord("", v))]
        pairs = [(v, vp) for v in rejecting for vp in rejecting
                 if member_from(a, p, LassoWord("", v + vp))]
        if pairs:
            bad[p] = pairs
    out = []
    for u in words_up_to(a.alphabet, max_u):
        for v, vp in bad.get(_advance(a, a.initial, u), ()):
            out.append((u, v, vp))
    return out


# ---------------------------------------------------------------------------
# the priority monoid by witness words: a behaviour is the pair (f, g) of
# a nonempty word, f[q] the state it leads q to and g[q] the least
# priority seen on the way

def ref_compose(x, y):
    """The behaviour of u v from those of u and v."""
    f1, g1 = x
    f2, g2 = y
    return (tuple(f2[q] for q in f1),
            tuple(min(g1[q], g2[f1[q]]) for q in range(len(f1))))


def ref_omega_accept(x, p) -> bool:
    """Is v^omega accepted from p, for a word v behaving like x?"""
    f, g = x
    seen = {}
    order = []
    q = p
    while q not in seen:
        seen[q] = len(order)
        order.append(q)
        q = f[q]
    return min(g[s] for s in order[seen[q]:]) % 2 == 0


def ref_monoid(a):
    """[(witness, behaviour)] breadth first over witness words: letters
    first, then every new element's one-letter extensions in order, so
    each behaviour keeps its shortest witness, first in alphabet order."""
    words = list(a.alphabet)
    seen = set()
    out = []
    for word in words:                 # grows while iterated: BFS
        x = word_behavior(a, word)
        if x not in seen:
            seen.add(x)
            out.append((word, x))
            words.extend(word + c for c in a.alphabet)
    return out


def ref_return_word(a):
    """Shortest nonempty word from the initial state back to it, first
    in alphabet order, by enumerating words shortest first."""
    for word in words_up_to(a.alphabet, a.n, min_len=1):
        if _advance(a, a.initial, word) == a.initial:
            return word
    return None


# ---------------------------------------------------------------------------
# properties 1 to 3 by the plain loops: one lasso search on the pair graph
# per pair of states, ref_omega_accept per monoid element and start
# state, ref_compose per pair of elements; and property 3 once more over
# the package's priority monoid, every pair of its elements scanned

def pair_graph(a):
    """A x complement_shift(A) as a cycles.py graph, from the two tables."""
    comp = complement_shift(a)
    graph = {}
    for p in range(a.n):
        for q in range(a.n):
            graph[p, q] = [(c, (a.delta[p][c][0], comp.delta[q][c][0]),
                            (a.delta[p][c][1], comp.delta[q][c][1]))
                           for c in a.alphabet]
    return graph


def ref_property1(a):
    access = reachable_states(a)
    states = sorted(access)
    g = pair_graph(a)
    failing = []
    for i, p in enumerate(states):
        for q in states[i + 1:]:
            w = ref_accepting_lasso_from(g, (p, q))
            wp = ref_accepting_lasso_from(g, (q, p))
            if w is not None and wp is not None:
                failing.append((p, q, w, wp))
    if not failing:
        return PropertyReport(True)
    ret = ref_return_word(a)

    def u_of(state):
        return access[state] or ret or ""

    for p, q, w, wp in failing:
        if u_of(p) and u_of(q):
            return PropertyReport(False, Witness1(u_of(p), u_of(q), w, wp))
    p, q, w, wp = failing[0]
    return PropertyReport(False, Witness1(access[p], access[q], w, wp))


def ref_property2(a):
    access = reachable_states(a)
    monoid = ref_monoid(a)
    g = pair_graph(a)
    cache = {}
    for p in sorted(access):
        for witness, x in monoid:
            if ref_omega_accept(x, p):
                continue
            q = x[0][p]
            if (q, p) not in cache:
                cache[q, p] = ref_accepting_lasso_from(g, (q, p))
            if cache[q, p] is not None:
                return PropertyReport(
                    False, Witness2(access[p], witness, cache[q, p]))
    return PropertyReport(True)


def ref_property3(a):
    access = reachable_states(a)
    monoid = ref_monoid(a)
    for p in sorted(access):
        rejecting = [(w, x) for w, x in monoid if not ref_omega_accept(x, p)]
        for v, x in rejecting:
            for vp, y in rejecting:
                if ref_omega_accept(ref_compose(x, y), p):
                    return PropertyReport(
                        False, Witness3(access[p], v, vp))
    return PropertyReport(True)


def ref_first_accepted_product(monoid, reach: int):
    """The first (p, i, j), p in `reach` lowest first, then i and j in
    monoid order, such that the omega-powers of elements i and j are
    rejected from p and that of their product is accepted; or None.

    Every pair of elements is tested, all start states at once as bits:
    row i of the product table is filled in generation order, product
    i.j from product i.parent[j] and the right Cayley table.
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


def ref_scan_property3(a):
    """Property 3 by the scan of every pair of priority-monoid elements,
    for every reachable start state."""
    access = reachable_states(a)
    monoid = PriorityMonoid(a)
    first = ref_first_accepted_product(monoid, sum(1 << p for p in access))
    if first is None:
        return PropertyReport(True)
    p, i, j = first
    return PropertyReport(
        False, Witness3(access[p], monoid.witness(i), monoid.witness(j)))


def random_dpa(rng, max_states=3, max_letters=3, max_priority=3):
    """A complete DPA with 1..max_states states and 2..max_letters letters."""
    n = rng.randint(1, max_states)
    letters = "abc"[:rng.randint(2, max_letters)]
    delta = [{c: (rng.randrange(n), rng.randint(0, max_priority))
              for c in letters} for _ in range(n)]
    return Dpa(Alphabet(letters), [str(q) for q in range(n)], 0, delta)


def counter_buchi(n):
    """Infinitely many a: a counts up modulo n with priority 0, b counts
    up from odd states and stays on even ones with priority 1."""
    delta = [{"a": ((q + 1) % n, 0), "b": ((q + 1) % n if q % 2 else q, 1)}
             for q in range(n)]
    return Dpa(Alphabet("ab"), [str(q) for q in range(n)], 0, delta)


def random_letter_graph(rng):
    """A cycles.py graph over letters a and b with 1-3 priority
    coordinates, and the nodes of its main part.

    The main part has 1-10 nodes named in a shuffled order, each with
    0-3 edges of priorities 0..4, a third of them self-loops.  Two more
    nodes form an island: a cycle with priority 0 in every coordinate,
    and an edge into the main part but none back, so roots in the main
    part never reach it.
    """
    k = rng.randint(1, 3)
    n = rng.randint(1, 10)
    main = ["v%d" % i for i in rng.sample(range(n), n)]

    def edge(v, targets):
        d = v if rng.random() < 1 / 3 else rng.choice(targets)
        return (rng.choice("ab"), d,
                tuple(rng.randint(0, 4) for _ in range(k)))

    graph = {v: [edge(v, main) for _ in range(rng.randint(0, 3))]
             for v in main}
    zero = (0,) * k
    graph["i0"] = [("a", "i1", zero), ("b", rng.choice(main), zero)]
    graph["i1"] = [("a", "i0", zero)]
    return graph, main


def perm_parity(n):
    """a rotates the n states, b swaps states 0 and 1, c loops; priorities
    1, 2, 3 by letter, so the condition is a parity condition on letters
    and positional, while the monoid grows roughly as n!."""
    delta = [{"a": ((q + 1) % n, 1), "b": ({0: 1, 1: 0}.get(q, q), 2),
              "c": (q, 3)} for q in range(n)]
    return Dpa(Alphabet("abc"), [str(q) for q in range(n)], 0, delta)


def perm_parity_marked(n):
    """perm_parity(n) with priority 5 on state 0's c loop: no two states
    are bisimilar, so the whole monoid, about n! elements, is generated
    and closed, and the condition stays positional."""
    a = perm_parity(n)
    delta = [dict(row) for row in a.delta]
    delta[0]["c"] = (0, 5)
    return Dpa(a.alphabet, a.names, a.initial, delta)


def unfold(a: Dpa, k: int, rng) -> Dpa:
    """k copies of every state of `a`, copy j of q numbered q·k + j, each
    transition sent to a random copy of its target: the copies of a
    state are bisimilar, so the language stays that of `a`."""
    delta = [{c: (t * k + rng.randrange(k), pri)
              for c, (t, pri) in a.delta[q].items()}
             for q in range(a.n) for _ in range(k)]
    return Dpa(a.alphabet, [str(q) for q in range(a.n * k)], a.initial * k,
               delta)


def unreduced_check(a: Dpa) -> PositionalityVerdict:
    """The decision of the three property checks in turn, each on `a`
    itself: `positionality._quotient` is replaced by the partition of the
    reachable states into singletons, so no state is merged."""
    with mock.patch.object(positionality, "_quotient",
                           lambda a, states: (a, dict(zip(states, states)))):
        for number, check in enumerate((check_property1, check_property2,
                                        check_property3), 1):
            report = check(a)
            if not report.passed:
                return PositionalityVerdict(False, number, report.witness)
    return PositionalityVerdict(True)


def certify_witness(a, wit) -> bool:
    """Re-check the membership facts a witness asserts."""
    def inside(w):
        return member_from(a, a.initial, w)

    if isinstance(wit, Witness1):
        return (inside(prepend(wit.u, wit.w))
                and inside(prepend(wit.up, wit.wp))
                and not inside(prepend(wit.u, wit.wp))
                and not inside(prepend(wit.up, wit.w)))
    if isinstance(wit, Witness2):
        return (inside(prepend(wit.u + wit.v, wit.w))
                and not inside(LassoWord(wit.u, wit.v))
                and not inside(prepend(wit.u, wit.w)))
    if isinstance(wit, Witness3):
        return (inside(LassoWord(wit.u, wit.v + wit.vp))
                and not inside(LassoWord(wit.u, wit.v))
                and not inside(LassoWord(wit.u, wit.vp)))
    raise TypeError("not a witness: %r" % (wit,))


def certify_nonpositional(a: Dpa, witness) -> bool:
    """Check that the witness gadget separates memory from positional.

    True iff Eve wins the gadget from its starts but no positional
    strategy does.
    """
    _arena, _starts, eve_wins, positional = certify(a, witness)
    return eve_wins and not positional


def word_behavior(a, word: str):
    """(f, g) of a nonempty word folded directly over the table."""
    assert word
    f = []
    g = []
    for q in range(a.n):
        state = q
        best = None
        for c in word:
            state, pri = a.delta[state][c]
            if best is None or pri < best:
                best = pri
        f.append(state)
        g.append(best)
    return tuple(f), tuple(g)


# ---------------------------------------------------------------------------
# brute parity-game solving by positional enumeration

def brute_eve_region(owners: dict, edges: dict):
    """Eve's winning set, by trying every positional choice and checking
    reachable simple cycles.  Sound because parity games admit positional
    optimal strategies for both players."""
    nodes = sorted(owners)
    rank = {v: i for i, v in enumerate(nodes)}
    eve_nodes = [v for v in nodes if owners[v] == EVE]
    won = set()
    for combo in product(*(range(len(edges[v])) for v in eve_nodes)):
        pick = dict(zip(eve_nodes, combo))
        succ = {}
        for v in nodes:
            if owners[v] == EVE:
                succ[v] = [edges[v][pick[v]]]
            else:
                succ[v] = list(edges[v])

        odd_roots = set()

        def dfs(start, v, visited, lowest):
            for dst, pri in succ[v]:
                m = min(lowest, pri)
                if dst == start:
                    if m % 2 == 1:
                        odd_roots.add(start)
                elif rank[dst] > rank[start] and dst not in visited:
                    dfs(start, dst, visited | {dst}, m)

        for start in nodes:
            dfs(start, start, {start}, 10 ** 9)

        preds = {v: set() for v in nodes}
        for v in nodes:
            for dst, _pri in succ[v]:
                preds[dst].add(v)
        bad = set(odd_roots)
        stack = list(odd_roots)
        while stack:
            v = stack.pop()
            for u in preds[v]:
                if u not in bad:
                    bad.add(u)
                    stack.append(u)
        won |= {v for v in nodes if v not in bad}
    return won


# ---------------------------------------------------------------------------
# Zielonka on the edge-split product, built from Python objects: every
# node a (vertex, state) tuple, every split node a list of successors

def ref_product_game(g):
    """(owners, edges) of the arena × automaton game, keyed by (vertex,
    state): edges[node] lists (letter, successor, priority)."""
    arena, delta = g.arena, g.condition.delta
    owners, edges = {}, {}
    for v in arena.owners:
        for q in range(g.condition.n):
            owners[(v, q)] = arena.owners[v]
            edges[(v, q)] = [(c, (dst, delta[q][c][0]), delta[q][c][1])
                             for c, dst in arena.out_edges(v)]
    return owners, edges


class _RefExpanded:
    """Vertex-priority parity game obtained by splitting each edge.

    Edge nodes carry the edge priority and belong to Adam; original
    nodes carry a neutral priority above every edge priority.
    """

    def __init__(self, owners: dict, edges: dict):
        self.orig = sorted(owners)
        index = {v: i for i, v in enumerate(self.orig)}
        maxpri = 0
        for moves in edges.values():
            for _c, _d, pri in moves:
                maxpri = max(maxpri, pri)
        self.owner = []
        self.pri = []
        self.succ = []
        self.edge_info = []
        for v in self.orig:
            self.owner.append(owners[v])
            self.pri.append(maxpri + 1)
            self.succ.append([])
            self.edge_info.append(None)
        for i, v in enumerate(self.orig):
            for k, (_c, dst, pri) in enumerate(edges[v]):
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


def _ref_attract(exp, region: set, target, player: str):
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


def _ref_zielonka(exp, region: set):
    won = {EVE: set(), ADAM: set()}
    choice = {}
    while region:
        d = min(exp.pri[v] for v in region)
        player = EVE if d % 2 == 0 else ADAM
        other = ADAM if player == EVE else EVE
        target = sorted(v for v in region if exp.pri[v] == d)
        area, achoice = _ref_attract(exp, region, target, player)
        we, wa, sub = _ref_zielonka(exp, region - area)
        wopp = wa if player == EVE else we
        if not wopp:
            for v in area:
                if exp.owner[v] == player and v not in achoice and v not in sub:
                    achoice[v] = next(s for s in exp.succ[v] if s in region)
            choice.update(sub)
            choice.update(achoice)
            won[player] |= region
            break
        barrier, bchoice = _ref_attract(exp, region, sorted(wopp), other)
        choice.update((v, sub[v]) for v in wopp
                      if exp.owner[v] == other and v in sub)
        choice.update(bchoice)
        won[other] |= barrier
        region = region - barrier
    return won[EVE], won[ADAM], choice


# Winning regions, Eve's edge index per Eve node of her region and
# Adam's per Adam node of his, each keyed by (vertex, state).
SolveResult = namedtuple("SolveResult",
                         "eve_region adam_region eve_choice adam_choice")


def ref_solve_parity(owners: dict, edges: dict) -> SolveResult:
    exp = _RefExpanded(owners, edges)
    eve, adam, choice = _ref_zielonka(exp, set(range(len(exp.owner))))
    assert len(eve) + len(adam) == len(exp.owner)
    regions = {EVE: set(), ADAM: set()}
    choices = {EVE: {}, ADAM: {}}
    for i, v in enumerate(exp.orig):
        winner = EVE if i in eve else ADAM
        regions[winner].add(v)
        if exp.owner[i] == winner:
            _vi, k = exp.edge_info[choice[i]]
            choices[winner][v] = k
    return SolveResult(regions[EVE], regions[ADAM], choices[EVE],
                       choices[ADAM])


# ---------------------------------------------------------------------------
# the merge loop on strings: lassos spelled out and compared by membership,
# a full copy and re-verification after every merge

def _only_edge(s: Strategy, state):
    out = s.out_edges(state)
    if len(out) != 1:
        raise NotEveOnly("state %r has %d moves, expected exactly one"
                         % (state, len(out)))
    return out[0]


def unique_path_lasso(s: Strategy, state) -> LassoWord:
    """The lasso traced from `state` by following single moves."""
    seen = {}
    labels = []
    cur = state
    while cur not in seen:
        seen[cur] = len(labels)
        letter, cur = _only_edge(s, cur)
        labels.append(letter)
    split = seen[cur]
    return LassoWord("".join(labels[:split]), "".join(labels[split:]))


def path_word(s: Strategy, frm, to):
    """Letters along the unique path from `frm` to `to`, or None if the
    trace cycles without reaching `to`.  Empty string when frm == to."""
    if frm == to:
        return ""
    labels = []
    seen = {frm}
    cur = frm
    while True:
        letter, cur = _only_edge(s, cur)
        labels.append(letter)
        if cur == to:
            return "".join(labels)
        if cur in seen:
            return None
        seen.add(cur)


def merge(s: Strategy, plan: MergePlan) -> Strategy:
    """A copy of `s` with every edge into `plan.drop` redirected to
    `plan.keep` and `plan.drop` deleted."""
    if plan.keep not in s.sigma or plan.drop not in s.sigma:
        raise InvalidPlan("plan names an unknown state")
    if plan.keep == plan.drop:
        raise InvalidPlan("cannot merge a state with itself")
    if s.sigma[plan.keep] != s.sigma[plan.drop]:
        raise InvalidPlan("states %r and %r sit on different vertices"
                          % (plan.keep, plan.drop))
    states = tuple(st for st in s.states if st != plan.drop)
    edges = []
    seen = set()
    for src, letter, dst in s.edges:
        if src == plan.drop:
            continue
        if dst == plan.drop:
            dst = plan.keep
        edge = (src, letter, dst)
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    sigma = {st: v for st, v in s.sigma.items() if st != plan.drop}
    return Strategy(states, edges, sigma)


def ref_compare_lassos(a: Dpa, w: LassoWord, wp: LassoWord) -> Comparison:
    """`compare_lassos` by membership: run both lassos with `member_from`
    from every reachable state, least first, and report the first state
    accepting only one side, in each direction."""
    access = reachable_states(a)
    left = right = True
    u = up = None
    for p in sorted(access):
        in_w = member_from(a, p, w)
        in_wp = member_from(a, p, wp)
        if in_w and not in_wp and left:
            left = False
            u = access[p]
        if in_wp and not in_w and right:
            right = False
            up = access[p]
    return Comparison(left, right, u, up)


def ref_choose_merge(s: Strategy, a: Dpa, p, q) -> MergePlan:
    """`reduction._choose_merge` on strings: spell the lassos out with
    `path_word` and `unique_path_lasso`, and compare them with
    `ref_compare_lassos`."""
    if p not in s.sigma or q not in s.sigma:
        raise PreconditionViolated("unknown state")
    if p == q or s.sigma[p] != s.sigma[q]:
        raise PreconditionViolated("states must be distinct and share a vertex")

    def compared(left: LassoWord, right: LassoWord):
        c = ref_compare_lassos(a, left, right)
        if c.incomparable:
            raise IncomparableLassos(
                "%s and %s are incomparable (u=%r, u'=%r)"
                % (left, right, c.u, c.up))
        return c

    def tie():
        return (p, q) if p <= q else (q, p)

    v_pq = path_word(s, p, q)
    v_qp = path_word(s, q, p)
    if v_pq is None and v_qp is None:
        c = compared(unique_path_lasso(s, p), unique_path_lasso(s, q))
        case = 1
        if c.equivalent:
            keep, drop = tie()
        elif c.left_leq:
            keep, drop = q, p
        else:
            keep, drop = p, q
    elif v_pq is not None and v_qp is None:
        c = compared(LassoWord("", v_pq), unique_path_lasso(s, q))
        case = 2
        keep, drop = (q, p) if c.left_leq else (p, q)
    elif v_qp is not None and v_pq is None:
        c = compared(LassoWord("", v_qp), unique_path_lasso(s, p))
        case = 3
        keep, drop = (p, q) if c.left_leq else (q, p)
    else:
        c = compared(LassoWord("", v_qp), LassoWord("", v_pq))
        case = 4
        if c.equivalent:
            keep, drop = tie()
        elif c.left_leq:
            keep, drop = p, q
        else:
            keep, drop = q, p
    return MergePlan(keep, drop, case)


def ref_least_shared_pair(sigma: dict):
    """The least pair (p, q), p < q over one vertex under `sigma`: least
    p, then least q; None when no vertex holds two states.  One pass over
    the sorted states, remembering the first state seen on each vertex."""
    first = {}
    best = None
    for q in sorted(sigma):
        p = first.setdefault(sigma[q], q)
        if p != q and (best is None or p < best[0]):
            best = (p, q)
    return best


def ref_reduce(g, s, region):
    """`reduce_to_positional` as `ref_choose_merge`, a fresh `merge` and
    a whole `verify_strategy` after each merge: quadratic, but each step
    is the plain definition."""
    if not g.arena.eve_only():
        raise NotEveOnly("reduction needs an Eve-only arena")
    validate_strategy(g, s)
    region = set(_check_starts(region, g.arena.owners, "vertex"))

    def region_states(strat):
        return [st for st in strat.states if strat.sigma[st] in region]

    if not verify_strategy(g, s, region_states(s)):
        raise PreconditionViolated(
            "strategy must win from every memory state over the region")
    while True:
        pair = ref_least_shared_pair(s.sigma)
        if pair is None:
            return s
        plan = ref_choose_merge(s, g.condition, *pair)
        merged = merge(s, plan)
        if len(merged.states) != len(s.states) - 1:
            raise AssertionError("merge did not remove exactly one state")
        if not verify_strategy(g, merged, region_states(merged)):
            raise MergeBrokeWinning(
                "merging %r into %r (case %d) broke the strategy"
                % (plan.drop, plan.keep, plan.case))
        s = merged

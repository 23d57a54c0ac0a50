"""Reference semantics the benchmark checks outputs against.

Nothing here imports posit: automata are the benchmark's own tables,
membership is decided by unrolling the lasso rather than by the
program's block-repetition search, and regions and verdicts come from
plain graph searches written here.
"""

from dataclasses import dataclass

# Marks a failure that is a documented defect of the program rather
# than a wrong answer; see KNOWN_DEFECTS in README.md.
KNOWN_DEFECT = "known defect: "


@dataclass(frozen=True)
class Automaton:
    """Deterministic min-even parity automaton as plain tables.

    delta[q][c] is (target, priority); state 0..n-1 is written out under
    names[q].
    """

    letters: str
    names: tuple
    initial: int
    delta: tuple

    @property
    def n(self):
        return len(self.names)

    def text(self, rng) -> str:
        """The .dpa file, transition lines shuffled by `rng`."""
        trans = ["trans %s %s %s %d" % (self.names[q], c, self.names[t], p)
                 for q, row in enumerate(self.delta)
                 for c, (t, p) in sorted(row.items())]
        rng.shuffle(trans)
        numbered = self.names == tuple(map(str, range(self.n)))
        head = ["dpa v1", "alphabet " + " ".join(self.letters),
                "states %d" % self.n if numbered
                else "states " + " ".join(self.names),
                "initial " + self.names[self.initial]]
        return "\n".join(head + trans) + "\n"

    def relabelled(self, rng, tag: str):
        """Same automaton with states renamed and renumbered at random."""
        perm = list(range(self.n))
        rng.shuffle(perm)                      # old state q becomes perm[q]
        labels = rng.sample(range(10 * self.n), self.n)
        names = tuple("%s%d" % (tag, labels[i]) for i in range(self.n))
        delta = [None] * self.n
        for q, row in enumerate(self.delta):
            delta[perm[q]] = {c: (perm[t], p) for c, (t, p) in row.items()}
        return Automaton(self.letters, names, perm[self.initial], tuple(delta))


def parse_lasso(text: str):
    prefix, period = text.split(":")
    if not period:
        raise ValueError("empty period in %r" % text)
    return prefix, period


def accepts(a: Automaton, prefix: str, period: str, start=None) -> bool:
    """Is prefix.period^omega accepted from `start` (default: initial)?

    After the prefix and n periods the state at each period boundary is
    on its eventual cycle, which is at most n periods long; the next n
    periods therefore read exactly the transitions taken infinitely
    often.
    """
    q = a.initial if start is None else start
    for c in prefix + period * a.n:
        q = a.delta[q][c][0]
    least = None
    for c in period * a.n:
        q, p = a.delta[q][c]
        least = p if least is None else min(least, p)
    return least % 2 == 0


def ex3_accepts(period: str) -> bool:
    """Infinitely many aa pairs and finitely many bb pairs, c ignored.

    Only the period decides either count; doubling it catches the pair
    that wraps around.
    """
    core = period.replace("c", "")
    return bool(core) and "aa" in core * 2 and "bb" not in core * 2


def witness_failure(a: Automaton, w: dict):
    """None when the witness refutes positionality as it claims to,
    else what is wrong with it."""
    try:
        prop = w["property"]
        if prop == 1:
            u, up = w["u"], w["up"]
            x, xp = parse_lasso(w["w"]), parse_lasso(w["wp"])
            ok = (accepts(a, u + x[0], x[1]) and accepts(a, up + xp[0], xp[1])
                  and not accepts(a, u + xp[0], xp[1])
                  and not accepts(a, up + x[0], x[1]))
        elif prop == 2:
            u, v = w["u"], w["v"]
            x = parse_lasso(w["w"])
            ok = (accepts(a, u + v + x[0], x[1]) and not accepts(a, u, v)
                  and not accepts(a, u + x[0], x[1]))
        elif prop == 3:
            u, v, vp = w["u"], w["v"], w["vp"]
            ok = (accepts(a, u, v + vp) and not accepts(a, u, v)
                  and not accepts(a, u, vp))
        else:
            return "unknown property %r" % (prop,)
    except (KeyError, TypeError, ValueError) as exc:
        return "malformed witness %r: %s" % (w, exc)
    return None if ok else "witness %r does not refute positionality" % (w,)


def parse_table(text: str) -> Automaton:
    """An Automaton from the .dpa lines this benchmark writes."""
    letters, names, initial, trans = "", (), None, []
    for line in text.splitlines():
        key, *rest = line.split()
        if key == "alphabet":
            letters = "".join(rest)
        elif key == "states":
            names = (tuple(map(str, range(int(rest[0])))) if len(rest) == 1
                     and rest[0].isdigit() else tuple(rest))
        elif key == "initial":
            initial = rest[0]
        elif key == "trans":
            trans.append(rest)
    index = {name: q for q, name in enumerate(names)}
    delta = [{} for _ in names]
    for src, c, dst, pri in trans:
        delta[index[src]][c] = (index[dst], int(pri))
    return Automaton(letters, names, index[initial], tuple(delta))


def components(succ: dict) -> dict:
    """Strongly connected components of {node: [node]}, as
    {node: representative node of its component} (iterative Kosaraju)."""
    order, seen = [], set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                order.append(node)
    pred = {node: [] for node in succ}
    for node, targets in succ.items():
        for nxt in targets:
            pred[nxt].append(node)
    comp = {}
    for root in reversed(order):
        if root in comp:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            for nxt in pred[stack.pop()]:
                if nxt not in comp:
                    comp[nxt] = root
                    stack.append(nxt)
    return comp


def reaching(edges: dict, floors) -> set:
    """Nodes of {node: [(node, *priorities)]} that reach a cycle whose
    least priorities are, coordinate by coordinate, one of `floors`.

    Such a cycle exists iff, among the edges with every priority at or
    above the floor, one strongly connected component holds, for each
    coordinate, an edge whose priority there equals the floor.
    """
    good = set()
    for floor in floors:
        sub = {n: [m for m, *lab in moves
                   if all(x >= f for x, f in zip(lab, floor))]
               for n, moves in edges.items()}
        comp = components(sub)
        hits = [set() for _ in floor]        # components holding the floor
        for n, moves in edges.items():
            for m, *lab in moves:
                if (comp[n] == comp[m]
                        and all(x >= f for x, f in zip(lab, floor))):
                    for i, (x, f) in enumerate(zip(lab, floor)):
                        if x == f:
                            hits[i].add(comp[n])
        good |= {n for n in edges if all(comp[n] in h for h in hits)}
    pred = {n: [] for n in edges}
    for n, moves in edges.items():
        for m, *_lab in moves:
            pred[m].append(n)
    won, stack = set(good), list(good)
    while stack:
        for n in pred[stack.pop()]:
            if n not in won:
                won.add(n)
                stack.append(n)
    return won


def eve_region(arena_edges, a: Automaton) -> set:
    """Winning region of an arena owned by Eve alone under condition `a`:
    v wins iff in the product (v, initial) reaches a cycle whose least
    priority is even."""
    product = {}
    for v, c, w in arena_edges:
        for q in range(a.n):
            t, p = a.delta[q][c]
            product.setdefault((v, q), []).append(((w, t), p))
            product.setdefault((w, t), [])
    evens = sorted({(p,) for row in a.delta for _t, p in row.values()
                    if p % 2 == 0})
    return {v for v, q in reaching(product, evens) if q == a.initial}


def _reachable(a: Automaton) -> list:
    seen, stack = {a.initial}, [a.initial]
    while stack:
        for t, _p in a.delta[stack.pop()].values():
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sorted(seen)


def not_included(a: Automaton) -> set:
    """Pairs (p, q) such that some lasso is accepted from p and rejected
    from q: in the pair product, (p, q) reaches a cycle whose least first
    priority is even and least second priority odd."""
    pairs = {}
    for p in range(a.n):
        for q in range(a.n):
            pairs[p, q] = [((a.delta[p][c][0], a.delta[q][c][0]),
                            a.delta[p][c][1], a.delta[q][c][1])
                           for c in a.letters]
    pris = sorted({pri for row in a.delta for _t, pri in row.values()})
    floors = [(e, o) for e in pris if e % 2 == 0 for o in pris if o % 2]
    return reaching(pairs, floors)


def positional_verdict(a: Automaton):
    """None when L(a) is positional, else the first of the three
    properties that fails, each decided over the automaton's transition
    monoid and its residual inclusions."""
    states = _reachable(a)
    differs = not_included(a)
    if any((p, q) in differs and (q, p) in differs
           for p in states for q in states):
        return 1
    # Behaviour of a nonempty word: (state reached, least priority seen)
    # from each state.
    letters = [tuple(a.delta[q][c] for q in range(a.n)) for c in a.letters]
    monoid, todo = set(letters), list(letters)
    while todo:
        m = todo.pop()
        for x in letters:
            mx = tuple((x[t][0], min(p, x[t][1])) for t, p in m)
            if mx not in monoid:
                monoid.add(mx)
                todo.append(mx)

    def omega(m, q):
        """Is the word of behaviour m, repeated forever, accepted from q?"""
        visits = []
        while q not in visits:
            visits.append(q)
            q = m[q][0]
        return min(m[s][1] for s in visits[visits.index(q):]) % 2 == 0

    if any(not omega(m, p) and (m[p][0], p) in differs
           for p in states for m in monoid):
        return 2
    for p in states:
        rejecting = [m for m in monoid if not omega(m, p)]
        for m in rejecting:
            for m2 in rejecting:
                mm2 = tuple((m2[t][0], min(pri, m2[t][1])) for t, pri in m)
                if omega(mm2, p):
                    return 3
    return None

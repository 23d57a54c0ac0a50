"""Shrink a finite-memory winning strategy to a positional one.

On an Eve-only arena every memory state has exactly one move, so the
strategy graph is a functional graph: from any state it traces a unique
lasso.  Two states over the same vertex can always be merged by keeping
the one whose future compares at least as high in the lasso preorder of
the condition; for positional conditions this never breaks winning, and
repeating it reaches memory one.

`reduce_to_positional` validates and verifies the strategy once, then
merges in place on a private working map (one move per state, with a
predecessor index).  A merge changes only the plays of the states that
can reach the dropped state, so each merge redirects the dropped state's
predecessors, forgets the walk verdicts of that backward cone and
re-walks the cone's region states with `games._walk`, the walk that
`verify_strategy` uses; a loss raises MergeBrokeWinning.  Pairs come
from per-vertex buckets and a heap, in the order of a scan over the
sorted states, and the result is built once, in the input's order, so
it equals a fresh `merge` and `verify_strategy` after every step.
"""

import heapq
from dataclasses import dataclass

from .automata import Dpa
from .errors import (IncomparableLassos, InvalidPlan, InvalidStrategy,
                     MergeBrokeWinning, NotEveOnly, PreconditionViolated)
from .games import (Game, Strategy, _one_move_step, _walk,
                    validate_strategy, verify_strategy)
from .positionality import compare_lassos
from .words import LassoWord


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
        letter, cur_next = _only_edge(s, cur)
        labels.append(letter)
        cur = cur_next
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


@dataclass(frozen=True)
class MergePlan:
    """Redirect every edge into `drop` towards `keep` and delete `drop`.

    comparisons records the lasso comparisons justifying the choice as
    (left, right, relation) string triples.
    """

    keep: str
    drop: str
    case: int
    comparisons: tuple = ()


def merge(s: Strategy, plan: MergePlan) -> Strategy:
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


def choose_merge(s: Strategy, a: Dpa, p, q) -> MergePlan:
    """Decide which of two states over one vertex survives a merge.

    Compares the futures the strategy produces: the state whose future
    is at least as good in the lasso preorder is kept, with ties broken
    towards the smaller state id.
    """
    if p not in s.sigma or q not in s.sigma:
        raise PreconditionViolated("unknown state")
    if p == q or s.sigma[p] != s.sigma[q]:
        raise PreconditionViolated("states must be distinct and share a vertex")
    comparisons = []

    def compared(left: LassoWord, right: LassoWord):
        c = compare_lassos(a, left, right)
        if c.equivalent:
            rel = "equivalent"
        elif c.left_leq:
            rel = "left below right"
        elif c.right_leq:
            rel = "right below left"
        else:
            rel = "incomparable"
        comparisons.append((str(left), str(right), rel))
        if c.incomparable:
            raise IncomparableLassos(
                "%s and %s are incomparable (u=%r, u'=%r)"
                % (left, right, c.u, c.up))
        return c

    v_pq = path_word(s, p, q)
    v_qp = path_word(s, q, p)
    if v_pq is None and v_qp is None:
        c = compared(unique_path_lasso(s, p), unique_path_lasso(s, q))
        case = 1
        if c.equivalent:
            keep, drop = (p, q) if p <= q else (q, p)
        elif c.left_leq:
            keep, drop = q, p
        else:
            keep, drop = p, q
    elif v_pq is not None and v_qp is None:
        # q lies on p's trace: keep q iff the loop v alone is no better
        # than what q reaches on its own.
        c = compared(LassoWord("", v_pq), unique_path_lasso(s, q))
        case = 2
        keep, drop = (q, p) if c.left_leq else (p, q)
    elif v_qp is not None and v_pq is None:
        c = compared(LassoWord("", v_qp), unique_path_lasso(s, p))
        case = 3
        keep, drop = (p, q) if c.left_leq else (q, p)
    else:
        # p and q sit on a common cycle reading v from p to q and v'
        # back; keeping p short-circuits the cycle into v^omega, keeping
        # q into v'^omega, so the better loop survives.
        c = compared(LassoWord("", v_qp), LassoWord("", v_pq))
        case = 4
        if c.equivalent:
            keep, drop = (p, q) if p <= q else (q, p)
        elif c.left_leq:
            keep, drop = p, q
        else:
            keep, drop = q, p
    return MergePlan(keep, drop, case, tuple(comparisons))


class _SharedPairs:
    """The states over each vertex in sorted buckets, and a heap of each
    bucket's two least states with its vertex.  The heap's top is the
    least pair (p, q), p < q over one vertex: least p, then least q (a
    bucket's least state is its only candidate for p)."""

    def __init__(self, sigma: dict):
        self._buckets = {}
        for st in sorted(sigma):
            self._buckets.setdefault(sigma[st], []).append(st)
        self._heap = [(b[0], b[1], v) for v, b in self._buckets.items()
                      if len(b) > 1]
        heapq.heapify(self._heap)

    def least(self):
        """The least pair, or None when no vertex holds two states."""
        return self._heap[0][:2] if self._heap else None

    def remove(self, st) -> None:
        """Take `st` out of the least pair's bucket.  Only that bucket
        changes, so the heap never holds a stale entry."""
        v = self._heap[0][2]
        bucket = self._buckets[v]
        bucket.remove(st)
        if len(bucket) > 1:
            heapq.heapreplace(self._heap, (bucket[0], bucket[1], v))
        else:
            heapq.heappop(self._heap)


class _Working:
    """A strategy with one move per state, merged in place.

    `move` sends each state to its single (letter, dst) and `preds`
    indexes the states moving into each state.  `sigma` and
    `out_edges` are all that `choose_merge`, `path_word` and
    `unique_path_lasso` read, so they take this view as a strategy.
    """

    def __init__(self, g: Game, s: Strategy):
        self.arena_edges = set(g.arena.edges)
        self.sigma = dict(s.sigma)
        self.move = {st: _only_edge(s, st) for st in s.states}
        self.preds = {st: set() for st in s.states}
        for src, (_letter, dst) in self.move.items():
            self.preds[dst].add(src)

    def out_edges(self, st):
        return [self.move[st]]

    def merge(self, plan: MergePlan) -> list:
        """Apply `plan` in place, with the checks of `merge`, and return
        the surviving states whose plays passed through `plan.drop`:
        the only states whose plays the merge changes."""
        keep, drop = plan.keep, plan.drop
        if keep not in self.sigma or drop not in self.sigma:
            raise InvalidPlan("plan names an unknown state")
        if keep == drop:
            raise InvalidPlan("cannot merge a state with itself")
        if self.sigma[keep] != self.sigma[drop]:
            raise InvalidPlan("states %r and %r sit on different vertices"
                              % (keep, drop))
        cone = {drop}
        todo = [drop]
        while todo:
            for src in self.preds[todo.pop()]:
                if src not in cone:
                    cone.add(src)
                    todo.append(src)
        cone.discard(drop)
        self.preds[self.move[drop][1]].discard(drop)
        for src in self.preds.pop(drop):
            letter, _dst = self.move[src]
            if (self.sigma[src], letter, self.sigma[keep]) \
                    not in self.arena_edges:
                raise InvalidStrategy(
                    "edge (%s, %s, %s) does not project onto the arena"
                    % (src, letter, keep))
            self.move[src] = (letter, keep)
            self.preds[keep].add(src)
        del self.move[drop], self.sigma[drop]
        return list(cone)

    def strategy(self, s: Strategy) -> Strategy:
        """The working map as a `Strategy`, in the state, edge and sigma
        order of the strategy `s` it started from."""
        alive = self.sigma
        return Strategy([st for st in s.states if st in alive],
                        [(src,) + self.move[src] for src, _l, _d in s.edges
                         if src in alive],
                        {st: v for st, v in s.sigma.items() if st in alive})


def reduce_to_positional(g: Game, s: Strategy, region) -> Strategy:
    """Merge memory states until each vertex of `region` keeps only one.

    Requires an Eve-only arena and a strategy winning from every memory
    state over the region.  Each merge re-walks the play of every region
    state it can change, and a loss raises MergeBrokeWinning.
    """
    if not g.arena.eve_only():
        raise NotEveOnly("reduction needs an Eve-only arena")
    validate_strategy(g, s)
    region = set(region)
    if not verify_strategy(g, s, [st for st in s.states
                                  if s.sigma[st] in region]):
        raise PreconditionViolated(
            "strategy must win from every memory state over the region")
    work = _Working(g, s)
    pairs = _SharedPairs(s.sigma)
    step = _one_move_step(g, work.move.__getitem__)
    q0, n = g.condition.initial, g.condition.n
    memo = {}  # (state, automaton state) -> Eve wins the play from it
    while True:
        pair = pairs.least()
        if pair is None:
            return work.strategy(s)
        plan = choose_merge(work, g.condition, *pair)
        before = len(work.sigma)
        cone = work.merge(plan)
        if len(work.sigma) != before - 1:
            raise AssertionError("merge did not remove exactly one state")
        pairs.remove(plan.drop)
        for st in cone + [plan.drop]:
            for q in range(n):
                memo.pop((st, q), None)
        for st in cone:
            if work.sigma[st] in region and not _walk((st, q0), step, memo):
                raise MergeBrokeWinning(
                    "merging %r into %r (case %d) broke the strategy"
                    % (plan.drop, plan.keep, plan.case))

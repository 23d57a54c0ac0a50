"""Shrink a finite-memory winning strategy to a positional one.

On an Eve-only arena every memory state has exactly one move, so the
strategy graph is a functional graph: from any state it traces a unique
lasso.  Two states over the same vertex can always be merged by keeping
the one whose future compares at least as high in the lasso preorder of
the condition; for positional conditions this never breaks winning, and
repeating it reaches memory one.
"""

from dataclasses import dataclass

from .automata import Dpa
from .errors import (IncomparableLassos, InvalidPlan, MergeBrokeWinning,
                     NotEveOnly, PreconditionViolated)
from .games import Game, Strategy, validate_strategy, verify_strategy
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


def _least_shared_pair(s: Strategy):
    """The least pair (p, q), p < q over one vertex: least p, then least
    q; None when no vertex holds two states.  One pass over the sorted
    states, remembering the first state seen on each vertex."""
    first = {}
    best = None
    for q in sorted(s.states):
        p = first.setdefault(s.sigma[q], q)
        if p != q and (best is None or p < best[0]):
            best = (p, q)
    return best


def reduce_to_positional(g: Game, s: Strategy, region) -> Strategy:
    """Merge memory states until each vertex of `region` keeps only one.

    Requires an Eve-only arena and a strategy winning from every memory
    state over the region; each merge is re-verified and a failure
    raises MergeBrokeWinning.
    """
    if not g.arena.eve_only():
        raise NotEveOnly("reduction needs an Eve-only arena")
    validate_strategy(g, s)
    region = set(region)

    def region_states(strat):
        return [st for st in strat.states if strat.sigma[st] in region]

    if not verify_strategy(g, s, region_states(s)):
        raise PreconditionViolated(
            "strategy must win from every memory state over the region")
    while True:
        pair = _least_shared_pair(s)
        if pair is None:
            return s
        plan = choose_merge(s, g.condition, *pair)
        merged = merge(s, plan)
        if len(merged.states) != len(s.states) - 1:
            raise AssertionError("merge did not remove exactly one state")
        if not verify_strategy(g, merged, region_states(merged)):
            raise MergeBrokeWinning(
                "merging %r into %r (case %d) broke the strategy"
                % (plan.drop, plan.keep, plan.case))
        s = merged

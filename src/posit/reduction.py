"""Shrink a finite-memory winning strategy to a positional one.

On an Eve-only arena every memory state has exactly one move, so the
strategy graph is a functional graph: from any state it traces a unique
lasso.  Two states over the same vertex can always be merged by keeping
the one whose future compares at least as high in the lasso preorder of
the condition; for positional conditions this never breaks winning, and
repeating it reaches memory one.

The preorder compares lassos by the reachable automaton states that
accept them, so `_choose_merge` reads each future as a bit mask over
those states and hands both to `positionality._compare`, the one
implementation of the preorder: a play's mask from `cycles._walk`
verdicts in the merge loop's memo, a loop v^omega's from
`automata._lasso_mask`.  One trace from each state finds v.

`reduce_to_positional` validates the strategy and walks every region
state's play once, then merges in place on a private working map (one
move per state, with a predecessor index).  The walk memo always holds
verdicts of the current map's plays.  A merge redirects the dropped
state d's predecessors to the kept state k, and changes only the plays
of the states that reached d.  When k's play misses d, the merge leaves
it as it was, and each changed play now reaches k's play from the
automaton state in which it reached d's.  So if k's walk verdicts equal
d's from every automaton state the memo holds for d, no verdict changes
and the merge forgets only d's own.  Otherwise (k reaches d, or a
verdict differs) it forgets every verdict and re-walks every region
state's play: each won before the merge, so a loss is a play the merge
changed, and raises MergeBrokeWinning.  The chooser's traces tell
whether k reaches d, and it reads and fills the same walk memo.
Pairs come least first, p then q, from one ascending pass over the
sorted states: at p, while p leads its vertex's sorted bucket, p merges
with the bucket's second.  A merge removes only p or q, so no state
below p ever gains a partner.  The result is built once, in the input's
order, so it equals a fresh merge and `verify_strategy` after every step.
"""

from collections import namedtuple

from .automata import Dpa, _lasso_mask, _one_move_step, reachable_states
from .cycles import _walk
from .errors import (IncomparableLassos, InvalidPlan, InvalidStrategy,
                     MergeBrokeWinning, NotEveOnly, PreconditionViolated)
from .games import Game, Strategy, _check_starts, validate_strategy
from .positionality import _compare
from .words import LassoWord


class MergePlan(namedtuple("MergePlan", "keep drop case")):
    """Redirect every edge into `drop` towards `keep` and delete `drop`."""

    __slots__ = ()


def _trace(move, frm, to):
    """Follow single moves from `frm`: the letters read, and None if they
    reach `to`, else the index of the letter where their cycle starts."""
    seen = {frm: 0}
    letters = []
    cur = frm
    while True:
        letter, cur = move(cur)
        letters.append(letter)
        if cur == to:
            return letters, None
        if cur in seen:
            return letters, seen[cur]
        seen[cur] = len(letters)


def _choose_merge(a: Dpa, access, sigma, move, memo, reaches, p,
                  q) -> MergePlan:
    """Decide which of two states p, q over one vertex survives a merge.

    Compares the futures the single moves `move(st) -> (letter, dst)`
    produce: the state whose future is at least as good in the lasso
    preorder, read over the reachable automaton states `access`, is
    kept, with ties broken towards the smaller state id.  Reads and
    fills `memo`, a `cycles._walk` memo valid for `move`.  Each trace
    from st towards the other state sets `reaches[st, other]` to whether
    it reaches it."""
    if p not in sigma or q not in sigma:
        raise PreconditionViolated("unknown state")
    if p == q or sigma[p] != sigma[q]:
        raise PreconditionViolated("states must be distinct and share a vertex")
    step = _one_move_step(a, move)

    def lasso(letters, split):
        return LassoWord("".join(letters[:split]), "".join(letters[split:]))

    def future(st, other):
        """What st's play becomes if st survives: the loop v^omega that
        its trace closes through `other`, else its own play.  Returned
        as (st, mask of the automaton states accepting it, its letters,
        the index where its cycle starts, 0 for a loop)."""
        letters, split = _trace(move, st, other)
        reaches[st, other] = split is None
        if split is None:
            return st, _lasso_mask(a, lasso(letters, 0)), letters, 0
        mask = sum(1 << r for r in access if _walk((st, r), step, memo))
        return st, mask, letters, split

    p_side, q_side = future(p, q), future(q, p)
    # 1: neither trace reaches the other state, 2: only p's, 3: only
    # q's, 4: both, so p and q share a cycle
    case = 1 + reaches[p, q] + 2 * reaches[q, p]
    left, right = (q_side, p_side) if reaches[q, p] else (p_side, q_side)
    c = _compare(access, left[1], right[1])
    if c.incomparable:
        raise IncomparableLassos("%s and %s are incomparable (u=%r, u'=%r)"
                                 % (lasso(*left[2:]), lasso(*right[2:]),
                                    c.u, c.up))
    if case in (1, 4) and c.equivalent:
        keep, drop = sorted((p, q))  # equal plays or loops: smaller id
    else:
        # the right side's state survives unless the left is strictly better
        keep, drop = (right[0], left[0]) if c.left_leq else (left[0], right[0])
    return MergePlan(keep, drop, case)


class _Working:
    """A strategy with one move per state, merged in place.

    `move` sends each state to its single (letter, dst), `preds` indexes
    the states moving into each state and `sigma` maps each state to
    its vertex.  The input strategy is validated on an Eve-only arena,
    so every state has exactly one move.  `merge` applies a plan.
    """

    def __init__(self, g: Game, s: Strategy):
        self.arena_edges = set(g.arena.edges)
        self.sigma = dict(s.sigma)
        self.move = {st: s.out_edges(st)[0] for st in s.states}
        self.preds = {st: set() for st in s.states}
        for src, (_letter, dst) in self.move.items():
            self.preds[dst].add(src)

    def merge(self, plan: MergePlan) -> None:
        """Apply `plan` in place: redirect every move into `plan.drop`
        to `plan.keep` and delete `plan.drop`.  The plan must name two
        distinct known states over one vertex, and every redirected
        edge must project onto the arena."""
        keep, drop = plan.keep, plan.drop
        if keep not in self.sigma or drop not in self.sigma:
            raise InvalidPlan("plan names an unknown state")
        if keep == drop:
            raise InvalidPlan("cannot merge a state with itself")
        if self.sigma[keep] != self.sigma[drop]:
            raise InvalidPlan("states %r and %r sit on different vertices"
                              % (keep, drop))
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

    def strategy(self, s: Strategy) -> Strategy:
        """The working map as a `Strategy`, in the state, edge and sigma
        order of the strategy `s` it started from."""
        alive = self.sigma
        return Strategy([st for st in s.states if st in alive],
                        [(src,) + self.move[src] for src, _l, _d in s.edges
                         if src in alive],
                        {st: v for st, v in s.sigma.items() if st in alive})


def _region_wins(sigma, region, step, q0, memo) -> bool:
    """Does the play of every state of `sigma` over `region` win from
    the automaton's initial state `q0`?  Walks them on `step`, reading
    and filling `memo`."""
    return all(_walk((st, q0), step, memo)
               for st, v in sigma.items() if v in region)


def reduce_to_positional(g: Game, s: Strategy, region) -> Strategy:
    """Merge memory states until each vertex of `region` keeps only one.

    Requires an Eve-only arena and a strategy winning from every memory
    state over the region.  A merge that can change a walk verdict
    forgets them all and re-walks the play of every region state, and a
    loss raises MergeBrokeWinning.
    """
    if not g.arena.eve_only():
        raise NotEveOnly("reduction needs an Eve-only arena")
    validate_strategy(g, s)
    region = set(_check_starts(region, g.arena.owners, "vertex"))
    work = _Working(g, s)
    move = work.move.__getitem__
    a = g.condition
    access = reachable_states(a)
    step = _one_move_step(a, move)
    q0, n = a.initial, a.n
    memo = {}  # (state, automaton state) -> Eve wins the play from it
    if not _region_wins(work.sigma, region, step, q0, memo):
        raise PreconditionViolated(
            "strategy must win from every memory state over the region")
    buckets = {}  # vertex -> the states over it, sorted
    order = sorted(s.sigma)
    for st in order:
        buckets.setdefault(s.sigma[st], []).append(st)
    for p in order:
        bucket = buckets[s.sigma[p]]
        while len(bucket) > 1 and bucket[0] == p:
            reaches = {}
            plan = _choose_merge(a, access, work.sigma, move, memo, reaches,
                                 p, bucket[1])
            keep, drop = plan.keep, plan.drop
            before = len(work.sigma)
            work.merge(plan)
            if len(work.sigma) != before - 1:
                raise AssertionError("merge did not remove exactly one state")
            bucket.remove(drop)
            # if the chooser's trace found that keep's play missed drop
            # (a plan it did not trace re-walks the region), the merge
            # left that play as it was, and a redirected move reaches
            # (keep, q) where it reached (drop, q): if those verdicts
            # agree, none changes
            if reaches.get((keep, drop)) is False and all(
                    _walk((keep, q), step, memo) == memo[drop, q]
                    for q in range(n) if (drop, q) in memo):
                for q in range(n):
                    memo.pop((drop, q), None)
            else:
                memo.clear()
                if not _region_wins(work.sigma, region, step, q0, memo):
                    raise MergeBrokeWinning(
                        "merging %r into %r (case %d) broke the strategy"
                        % (drop, keep, plan.case))
    return work.strategy(s)

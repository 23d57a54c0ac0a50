import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import posit
from posit import reduction
from posit import (Game, IncomparableLassos, InvalidPlan, InvalidStrategy,
                   LassoWord, MergeBrokeWinning, MergePlan, NotEveOnly,
                   PositError, PreconditionViolated, Strategy, choose_merge,
                   parse_arena, random_arena, reduce_to_positional,
                   solve_game, verify_strategy)
from posit.fixtures import DPA_NAMES, load_arena, load_dpa
from posit.reduction import _SharedPairs, _Working

import oracles
from oracles import (lasso_equal, merge, path_word, ref_choose_merge,
                     ref_least_shared_pair, ref_reduce, unique_path_lasso)


def loop_strategy(edges):
    """Strategy whose states all sit on the twoloops center vertex."""
    states = tuple(sorted({e[0] for e in edges} | {e[2] for e in edges}))
    return Strategy(states, tuple(edges), {st: "center" for st in states})


class TestTrace:
    def strategy(self):
        return loop_strategy([("m1", "a", "m2"), ("m2", "b", "m3"),
                              ("m3", "a", "m2")])

    def test_unique_path_lasso(self):
        s = self.strategy()
        assert str(unique_path_lasso(s, "m1")) == "a:ba"
        assert str(unique_path_lasso(s, "m2")) == ":ba"

    def test_path_word(self):
        s = self.strategy()
        assert path_word(s, "m1", "m3") == "ab"
        assert path_word(s, "m2", "m2") == ""
        assert path_word(s, "m3", "m1") is None

    def test_branching_state_rejected(self):
        s = loop_strategy([("m1", "a", "m1"), ("m1", "b", "m1")])
        with pytest.raises(NotEveOnly):
            unique_path_lasso(s, "m1")


class TestMerge:
    def test_redirects_and_drops(self):
        s = loop_strategy([("m1", "a", "m2"), ("m2", "b", "m2")])
        merged = merge(s, MergePlan(keep="m1", drop="m2", case=2))
        assert merged.states == ("m1",)
        assert merged.edges == (("m1", "a", "m1"),)
        assert merged.sigma == {"m1": "center"}

    def test_redirect_dedupes(self):
        s = loop_strategy([("m1", "a", "m2"), ("m1", "a", "m1"),
                           ("m2", "b", "m2")])
        merged = merge(s, MergePlan(keep="m1", drop="m2", case=2))
        assert merged.edges == (("m1", "a", "m1"),)

    @pytest.mark.parametrize("keep, drop, message", [
        ("m1", "m9", "unknown"),
        ("m1", "m1", "itself"),
    ])
    def test_invalid_plans(self, keep, drop, message):
        s = loop_strategy([("m1", "a", "m2"), ("m2", "b", "m2")])
        with pytest.raises(InvalidPlan, match=message):
            merge(s, MergePlan(keep=keep, drop=drop, case=1))

    def test_different_vertices_rejected(self):
        s = Strategy(("m1", "m2"), (("m1", "a", "m2"), ("m2", "b", "m2")),
                     {"m1": "u", "m2": "center"})
        with pytest.raises(InvalidPlan, match="different vertices"):
            merge(s, MergePlan(keep="m1", drop="m2", case=1))


class TestWorkingMerge:
    """The merge loop's in-place merge step against the public `merge`."""

    def test_matches_merge_and_reports_the_changed_plays(self):
        rng = random.Random(5)
        merges = changed = 0
        for name in ("ex3", "infab"):
            dpa = load_dpa(name)
            for seed in range(40):
                game = Game(random_arena(seed % 8 + 2, 3, 1.0, dpa.alphabet,
                                         seed), dpa)
                s = origin = solve_game(game).strategy
                work = _Working(game, s)
                while True:
                    pairs = [(p, q) for p in s.states for q in s.states
                             if p != q and s.sigma[p] == s.sigma[q]]
                    if not pairs:
                        break
                    keep, drop = rng.choice(pairs)
                    plan = MergePlan(keep=keep, drop=drop, case=1)
                    passing = {st for st in s.states if st != drop
                               and path_word(s, st, drop) is not None}
                    assert set(work.merge(plan)) == passing
                    s = merge(s, plan)
                    built = work.strategy(origin)
                    assert (built.states, built.edges) == (s.states, s.edges)
                    assert list(built.sigma.items()) == list(s.sigma.items())
                    merges += 1
                    changed += len(passing)
        assert merges > 100 and changed > merges

    @pytest.mark.parametrize("keep, drop, message", [
        ("m1", "m9", "unknown"),
        ("m1", "m1", "itself"),
    ])
    def test_invalid_plans(self, keep, drop, message):
        game = Game(load_arena("twoloops"), load_dpa("buchi_a"))
        work = _Working(game, loop_strategy([("m1", "a", "m2"),
                                             ("m2", "b", "m2")]))
        with pytest.raises(InvalidPlan, match=message):
            work.merge(MergePlan(keep=keep, drop=drop, case=1))

    def test_different_vertices_rejected(self):
        arena = parse_arena("arena v1\nalphabet a b\nvertex u E\n"
                            "vertex center E\nedge u a center\n"
                            "edge center b center\n")
        s = Strategy(("m1", "m2"), (("m1", "a", "m2"), ("m2", "b", "m2")),
                     {"m1": "u", "m2": "center"})
        work = _Working(Game(arena, load_dpa("buchi_a")), s)
        with pytest.raises(InvalidPlan, match="different vertices"):
            work.merge(MergePlan(keep="m1", drop="m2", case=1))

    def test_redirected_edges_must_project(self):
        game = Game(load_arena("twoloops"), load_dpa("buchi_a"))
        work = _Working(game, loop_strategy([("m1", "a", "m2"),
                                             ("m2", "b", "m2")]))
        # m1's a move would be redirected to m1 itself
        work.arena_edges.discard(("center", "a", "center"))
        with pytest.raises(InvalidStrategy, match="does not project"):
            work.merge(MergePlan(keep="m1", drop="m2", case=2))


class TestChooseMerge:
    def test_disjoint_traces_keep_better(self):
        # two separate loops: a^omega beats b^omega when a's must recur
        s = loop_strategy([("m1", "a", "m1"), ("m2", "b", "m2")])
        plan = choose_merge(s, load_dpa("buchi_a"), "m1", "m2")
        assert (plan.case, plan.keep, plan.drop) == (1, "m1", "m2")

    def test_disjoint_traces_tie_keeps_lower_id(self):
        s = loop_strategy([("m1", "a", "m1"), ("m2", "a", "m2")])
        plan = choose_merge(s, load_dpa("buchi_a"), "m1", "m2")
        assert (plan.case, plan.keep, plan.drop) == (1, "m1", "m2")

    def test_forward_path_keeps_target(self):
        # dropping m2 would loop the a edge forever, which fin_a loses
        s = loop_strategy([("m1", "a", "m2"), ("m2", "b", "m2")])
        plan = choose_merge(s, load_dpa("fin_a"), "m1", "m2")
        assert (plan.case, plan.keep, plan.drop) == (2, "m2", "m1")

    def test_swapped_arguments_same_survivor(self):
        s = loop_strategy([("m1", "a", "m2"), ("m2", "b", "m2")])
        plan = choose_merge(s, load_dpa("fin_a"), "m2", "m1")
        assert (plan.case, plan.keep, plan.drop) == (3, "m2", "m1")

    def test_shared_cycle_keeps_better_loop(self):
        # short-circuiting at m1 yields a^omega, at m2 yields b^omega
        s = loop_strategy([("m1", "a", "m2"), ("m2", "b", "m1")])
        plan = choose_merge(s, load_dpa("buchi_a"), "m1", "m2")
        assert (plan.case, plan.keep, plan.drop) == (4, "m1", "m2")

    def test_shared_cycle_tie_keeps_lower_id(self):
        s = loop_strategy([("m1", "a", "m2"), ("m2", "a", "m1")])
        plan = choose_merge(s, load_dpa("buchi_a"), "m1", "m2")
        assert (plan.case, plan.keep, plan.drop) == (4, "m1", "m2")

    def test_incomparable_traces_raise(self):
        s = Strategy(("m1", "m2"),
                     (("m1", "b", "m1"), ("m2", "c", "m2")),
                     {"m1": "v", "m2": "v"})
        with pytest.raises(IncomparableLassos, match="incomparable"):
            choose_merge(s, load_dpa("res"), "m1", "m2")

    def test_rejects_bad_pairs(self):
        s = loop_strategy([("m1", "a", "m1"), ("m2", "b", "m2")])
        dpa = load_dpa("buchi_a")
        with pytest.raises(PreconditionViolated):
            choose_merge(s, dpa, "m1", "m9")
        with pytest.raises(PreconditionViolated):
            choose_merge(s, dpa, "m1", "m1")
        other = Strategy(("m1", "m2"),
                         (("m1", "a", "m2"), ("m2", "b", "m2")),
                         {"m1": "u", "m2": "center"})
        with pytest.raises(PreconditionViolated):
            choose_merge(other, dpa, "m1", "m2")

    def test_branching_state_rejected(self):
        s = loop_strategy([("m1", "a", "m3"), ("m2", "b", "m2"),
                           ("m3", "a", "m1"), ("m3", "b", "m1")])
        with pytest.raises(NotEveOnly, match="'m3' has 2 moves"):
            choose_merge(s, load_dpa("buchi_a"), "m1", "m2")


class TestChooseMatchesReference:
    """The chooser reads masks of accepting automaton states; the
    reference spells both lassos out and compares them by membership.
    Plans, or exception types and messages, must be equal."""

    def test_random_pairs_under_every_fixture(self):
        rng = random.Random(0)
        kinds = Counter()
        for name in DPA_NAMES:
            dpa = load_dpa(name)
            for seed in range(140):
                # every fourth arena has Adam vertices, whose states
                # branch and must raise NotEveOnly in both choosers
                eve = 0.7 if seed % 4 == 3 else 1.0
                game = Game(random_arena(seed % 12 + 2, 3, eve, dpa.alphabet,
                                         seed), dpa)
                s = solve_game(game).strategy
                pairs = [(p, q) for p in s.states for q in s.states
                         if p != q and s.sigma[p] == s.sigma[q]]
                for p, q in rng.sample(pairs, min(len(pairs), 10)):
                    got = chosen(choose_merge, s, dpa, p, q)
                    assert got == chosen(ref_choose_merge, s, dpa, p, q)
                    kinds[got[0] if got[0] != "plan" else got[1].case] += 1
        for kind in (1, 2, 3, 4, "IncomparableLassos", "NotEveOnly"):
            assert kinds[kind] >= 100, kinds


def chosen(choose, s, a, p, q):
    """("plan", the plan), or the exception's type and message."""
    try:
        return "plan", choose(s, a, p, q)
    except PositError as exc:
        return type(exc).__name__, str(exc)


def shuffled_names(s: Strategy, rng) -> Strategy:
    """The same strategy with its states renamed at random, so that the
    states over one vertex no longer sort next to each other."""
    names = dict(zip(s.states, ("m%03d" % k for k in
                                rng.sample(range(len(s.states)),
                                           len(s.states)))))
    return Strategy([names[st] for st in s.states],
                    [(names[x], c, names[y]) for x, c, y in s.edges],
                    {names[st]: v for st, v in s.sigma.items()})


class TestLeastSharedPair:
    def test_matches_minimum_over_all_pairs(self):
        # after building, and after each removal of a random state of the
        # least pair, as the merge loop removes the dropped one
        rng = random.Random(0)
        found = removals = 0
        for name in ("ex3", "res", "infab"):
            a = load_dpa(name)
            for seed in range(30):
                arena = random_arena(8, 3, 0.5, a.alphabet, seed=seed)
                s = shuffled_names(solve_game(Game(arena, a)).strategy, rng)
                sigma = dict(s.sigma)
                pairs = _SharedPairs(sigma)
                found += ref_least_shared_pair(sigma) is not None
                while True:
                    pair = pairs.least()
                    brute = min(((p, q) for p in sigma for q in sigma
                                 if p < q and sigma[p] == sigma[q]),
                                default=None)
                    assert pair == brute == ref_least_shared_pair(sigma)
                    if pair is None:
                        break
                    drop = rng.choice(pair)
                    pairs.remove(drop)
                    del sigma[drop]
                    removals += 1
        # both outcomes occur often enough for the comparison to bite
        assert 10 < found < 80
        assert removals > 100


class TestReduce:
    def test_twoloops_solution_becomes_a_loop(self):
        game = Game(load_arena("twoloops"), load_dpa("buchi_a"))
        solution = solve_game(game)
        reduced = reduce_to_positional(game, solution.strategy,
                                       solution.winning_region)
        assert reduced.memory() == 1
        (state,) = reduced.states
        assert lasso_equal(unique_path_lasso(reduced, state),
                           LassoWord("", "a"))
        assert verify_strategy(game, reduced, [state])

    def test_handcrafted_forward_path(self):
        game = Game(load_arena("twoloops"), load_dpa("fin_a"))
        s = loop_strategy([("m1", "a", "m2"), ("m2", "b", "m2")])
        reduced = reduce_to_positional(game, s, {"center"})
        assert reduced.states == ("m2",)
        assert reduced.edges == (("m2", "b", "m2"),)

    def test_two_vertex_arena(self):
        arena = parse_arena("arena v1\n"
                            "alphabet a b\n"
                            "vertex v1 E\n"
                            "vertex v2 E\n"
                            "edge v1 a v2\n"
                            "edge v1 b v1\n"
                            "edge v2 b v1\n")
        game = Game(arena, load_dpa("buchi_a"))
        solution = solve_game(game)
        assert solution.winning_region == {"v1", "v2"}
        reduced = reduce_to_positional(game, solution.strategy,
                                       solution.winning_region)
        assert reduced.memory() == 1
        assert verify_strategy(game, reduced, reduced.states)

    def test_merge_breaking_memory_condition_raises(self):
        # alternation needs both letters forever, no single loop works
        game = Game(load_arena("twoloops"), load_dpa("infab"))
        solution = solve_game(game)
        with pytest.raises(MergeBrokeWinning):
            reduce_to_positional(game, solution.strategy,
                                 solution.winning_region)

    def test_adam_vertices_rejected(self):
        game = Game(load_arena("w2game"), load_dpa("w2"))
        solution = solve_game(game)
        with pytest.raises(NotEveOnly):
            reduce_to_positional(game, solution.strategy,
                                 solution.winning_region)

    def test_state_count_check_runs_under_optimize(self):
        # an in-place merge step that drops no state is an internal bug,
        # even under -O
        code = "\n".join((
            "import posit.reduction as R",
            "from posit.fixtures import load_arena, load_dpa",
            "from posit.games import Game, Strategy",
            "R._Working.merge = lambda self, plan: []",
            "game = Game(load_arena('twoloops'), load_dpa('fin_a'))",
            "s = Strategy(('m1', 'm2'), (('m1', 'a', 'm2'), ('m2', 'b', 'm2')),",
            "             {'m1': 'center', 'm2': 'center'})",
            "try:",
            "    R.reduce_to_positional(game, s, {'center'})",
            "except AssertionError:",
            "    print('raised', __debug__)",
        ))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(posit.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, encoding="utf-8", check=True,
                             timeout=60)
        assert out.stdout == "raised False\n"

    def test_weak_strategy_rejected(self):
        # m1 wins from the start but m2's b loop never sees an a
        game = Game(load_arena("twoloops"), load_dpa("buchi_a"))
        s = loop_strategy([("m1", "a", "m1"), ("m2", "b", "m2")])
        with pytest.raises(PreconditionViolated):
            reduce_to_positional(game, s, {"center"})


class TestPinnedOutputs:
    """Reduced strategies on ex3 random arenas, pinned by the sha256 of
    repr((states, edges, sorted sigma items)): a faster merge loop must
    still build exactly these strategies.  The solved strategies of
    large mixed arenas are pinned the same way."""

    @staticmethod
    def reduced(nv, seed):
        ex3 = load_dpa("ex3")
        game = Game(random_arena(nv, 3, 1.0, ex3.alphabet, seed), ex3)
        solution = solve_game(game)
        r = reduce_to_positional(game, solution.strategy,
                                 solution.winning_region)
        return repr((r.states, r.edges, sorted(r.sigma.items()))).encode()

    def test_sixteen_arenas_of_120_vertices(self):
        digest = hashlib.sha256()
        for seed in range(16):
            digest.update(self.reduced(120, seed))
        assert digest.hexdigest() == (
            "668acaf51d8d20f5a013a623692ec2e12fe0c7ba00b1e0336b8b383fbab3cab8")

    @pytest.mark.parametrize("nv, expected", [
        (120, "acb0c42b4efb203f15ba6c7b2a5b5b79"
              "954056d189424fa9a149d902b0e6ab39"),
        (200, "ed46d50e9d1339c9a0ae6ea641037434"
              "c97d81e95923e1e859b42674c9202a56"),
        (400, "76ea45a379373523867b4819a11e226e"
              "eace0165587173351c5a46ab98b3de8c"),
    ])
    def test_seed_7(self, nv, expected):
        assert hashlib.sha256(self.reduced(nv, 7)).hexdigest() == expected

    @pytest.mark.parametrize("condition, expected", [
        ("ex3", "a27e68e1721a10e2c40e02d9c92403be"
                "645d79ab43c80e8d2df10ee1ad6b58d4"),
        ("w2", "d35ba1e077d864152279e15546750784"
               "acfe50a2f9041c1c13aa482ca96efcfd"),
        ("res", "f57d713837121e0a64177e8f03235093"
                "1d08afda54476ccf6c873e9732d72e6d"),
    ])
    def test_solve_game_on_mixed_arenas_of_3000_vertices(self, condition,
                                                         expected):
        """solve_game's region and strategy, seeds 0-2: a faster solver
        must still pick exactly these moves."""
        dpa = load_dpa(condition)
        digest = hashlib.sha256()
        for seed in range(3):
            s = solve_game(Game(random_arena(3000, 3, 0.5, dpa.alphabet,
                                             seed), dpa))
            st = s.strategy
            digest.update(repr((sorted(s.winning_region), st.states,
                                st.edges, sorted(st.sigma.items()))).encode())
        assert digest.hexdigest() == expected


def outcome(reduce, game, s, region):
    """The reduced strategy's states, edges and sigma, or the exception's
    type and message."""
    try:
        r = reduce(game, s, region)
    except PositError as exc:
        return type(exc).__name__, str(exc)
    return r.states, r.edges, list(r.sigma.items())


class TestIncrementalMatchesReference:
    """The merge loop re-walks only the plays a merge can change; the
    reference copies the strategy and re-verifies all of it after every
    merge.  Results and exceptions must be equal."""

    @staticmethod
    def check(game, s, region):
        got = outcome(reduce_to_positional, game, s, region)
        assert got == outcome(ref_reduce, game, s, region)
        return got

    def test_criterion_5_arenas(self):
        merged = 0
        for name in ("buchi_a", "fin_a", "rabin", "ex3"):
            dpa = load_dpa(name)
            for i in range(100):
                game = Game(random_arena(i % 5 + 1, 3, 1.0, dpa.alphabet, i),
                            dpa)
                solution = solve_game(game)
                states = self.check(game, solution.strategy,
                                    solution.winning_region)[0]
                merged += len(solution.strategy.states) - len(states)
        assert merged > 100

    def test_ex3_arena_of_400_vertices(self):
        ex3 = load_dpa("ex3")
        game = Game(random_arena(400, 3, 1.0, ex3.alphabet, seed=7), ex3)
        solution = solve_game(game)
        states = self.check(game, solution.strategy,
                            solution.winning_region)[0]
        assert len(solution.strategy.states) - len(states) > 250

    def test_twoloops_infab_breaks(self):
        game = Game(load_arena("twoloops"), load_dpa("infab"))
        solution = solve_game(game)
        got = self.check(game, solution.strategy, solution.winning_region)
        assert got[0] == "MergeBrokeWinning"

    def test_forced_merge_breaks_one_changed_state(self, monkeypatch):
        # onea is "some a, then finitely many": k -b-> d -a-> e -b-> e,
        # and each w reads a into k.  Merging d into k leaves k with b^omega
        # alone, lost, while every w still reads one a first: all ten
        # states' plays change and only k's loses.
        arena = parse_arena("arena v1\nalphabet a b\nvertex c E\n"
                            "vertex e E\nedge c a c\nedge c b c\n"
                            "edge c a e\nedge e b e\n")
        game = Game(arena, load_dpa("onea"))
        winners = ["w%d" % i for i in range(9)]
        sigma = {st: "c" for st in ["d", "k"] + winners}
        sigma["e"] = "e"
        s = Strategy(sigma, [("k", "b", "d"), ("d", "a", "e"),
                             ("e", "b", "e")]
                     + [(w, "a", "k") for w in winners], sigma)
        plan = MergePlan(keep="k", drop="d", case=2)
        monkeypatch.setattr(reduction, "_choose_merge", lambda *args: plan)
        monkeypatch.setattr(oracles, "ref_choose_merge", lambda *args: plan)
        got = self.check(game, s, {"c"})
        assert got == ("MergeBrokeWinning",
                       "merging 'd' into 'k' (case 2) broke the strategy")

    def test_choice_reads_a_play_that_a_merge_changed(self):
        # onea accepts "some a, then finitely many" from state 0 and
        # "finitely many a" from state 1.  Choosing between a1 and a2
        # walks c1's play a^omega, rejected from both.  Merging b2 into
        # b1 turns c1's play into a b^omega, accepted from both, so the
        # last choice keeps c1 over c2's b^omega; with c1's old verdicts
        # it would keep c2.
        arena = parse_arena("arena v1\nalphabet a b\nvertex d E\n"
                            "vertex e E\nvertex f E\nedge d a e\n"
                            "edge d b d\nedge e a e\nedge e b e\n"
                            "edge f a f\nedge f b d\n")
        game = Game(arena, load_dpa("onea"))
        s = Strategy(("a1", "a2", "b1", "b2", "c1", "c2"),
                     (("a1", "b", "c1"), ("a2", "a", "a2"),
                      ("b1", "b", "b1"), ("b2", "a", "b2"),
                      ("c1", "a", "b2"), ("c2", "b", "c2")),
                     {"a1": "f", "a2": "f", "b1": "e", "b2": "e",
                      "c1": "d", "c2": "d"})
        assert self.check(game, s, set())[0] == ("a1", "b1", "c1")

    @pytest.mark.parametrize("name", ["onea", "infab", "w2", "res"])
    def test_conditions_needing_memory(self, name):
        # merges may break these strategies; on the infab and w2 arenas
        # some breaks show only at states more than one move before the
        # dropped state, or through walk verdicts of earlier merges
        dpa = load_dpa(name)
        kinds = set()
        for i in range(300):
            game = Game(random_arena(i % 25 + 1, 3, 1.0, dpa.alphabet, i),
                        dpa)
            solution = solve_game(game)
            got = self.check(game, solution.strategy, solution.winning_region)
            kinds.add(got[0] if isinstance(got[0], str) else "reduced")
        assert "reduced" in kinds

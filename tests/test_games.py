from collections import Counter
from itertools import chain
import random
import sys

import pytest

from posit import (ADAM, EVE, Alphabet, AlphabetMismatch, Arena, Dpa, Game,
                   InvalidStrategy, ParseError, PreconditionViolated,
                   SearchSpaceTooLarge, SinkVertex, Strategy,
                   TooManyPriorities, UnknownLetter, check_positional,
                   find_positional, format_arena, gadget_from_witness,
                   parse_arena, random_arena, solve_game, validate_strategy,
                   verify_strategy)
from posit import games
from posit.automata import MAX_DISTINCT_PRIORITIES
from posit.cycles import nodes_reaching_accepting_cycle, reachable_graph
from posit.games import product_game
from posit.fixtures import ARENA_NAMES, DPA_NAMES, load_arena, load_dpa

import oracles
from oracles import as_dict_graph, brute_eve_region, complement_shift

SMALL = """\
arena v1
alphabet a b
vertex u A
vertex e E
edge u a e
edge e b u
edge e a e
"""


class TestParseArena:
    def test_basic(self):
        arena = parse_arena(SMALL)
        assert arena.owners == {"u": ADAM, "e": EVE}
        assert arena.out_edges("e") == [("b", "u"), ("a", "e")]

    def test_round_trip(self):
        for name in ("w2game", "twoloops"):
            arena = load_arena(name)
            again = parse_arena(format_arena(arena))
            assert again.owners == arena.owners
            assert again.edges == arena.edges

    def test_duplicate_edges_collapse(self):
        arena = parse_arena(SMALL + "edge e a e\n")
        assert arena.out_edges("e") == [("b", "u"), ("a", "e")]

    @pytest.mark.parametrize("old, new, message", [
        ("arena v1", "arena v2", "header"),
        ("vertex u A", "vertex u X", "owner"),
        ("edge u a e", "edge w a e", "not a vertex"),
    ])
    def test_bad_lines(self, old, new, message):
        with pytest.raises(ParseError, match=message):
            parse_arena(SMALL.replace(old, new))

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError, match="^line 8: duplicate vertex 'u'$"):
            parse_arena(SMALL + "vertex u E\n")

    def test_unknown_letter_in_edge(self):
        with pytest.raises(UnknownLetter):
            parse_arena(SMALL.replace("edge u a e", "edge u q e"))

    @pytest.mark.parametrize("bad, error, message", [
        ("edge e a w", ParseError, "edge endpoint 'w' is not a vertex"),
        ("edge e q u", UnknownLetter, "letter 'q' not in alphabet"),
    ])
    def test_repeated_bad_edge_named_at_first_occurrence(self, bad, error,
                                                         message):
        text = SMALL + bad + "\nedge x a e\n" + bad + "\n"
        for parse in (parse_arena, oracles.ref_parse_arena):
            with pytest.raises(error, match="^%s$" % message):
                parse(text)

    def test_bad_edge_wins_over_bad_owner(self):
        text = SMALL.replace("vertex u A", "vertex u X").replace(
            "edge e b u", "edge e q u")
        with pytest.raises(UnknownLetter, match="^letter 'q' not in alphabet$"):
            parse_arena(text)

    def test_trailing_comment_on_edge_line(self):
        arena = parse_arena(SMALL.replace("edge e b u", "edge e b u# back"))
        assert arena.out_edges("e") == [("b", "u"), ("a", "e")]

    def test_large_round_trip_with_comments_and_blank_lines(self):
        arena = random_arena(3000, 3, 0.5, load_dpa("ex3").alphabet, seed=0)
        lines = format_arena(arena).splitlines()
        for i in range(len(lines) - 1, 0, -97):
            lines.insert(i, "# comment %d" % i if i % 2 else "")
            lines[i - 1] += "  # trailing"
        text = "\r\n".join(lines) + "\r\n"
        again = parse_arena(text)
        assert again.owners == arena.owners
        assert again.edges == arena.edges
        assert all(again.out_edges(v) == arena.out_edges(v)
                   for v in arena.owners)
        ref = oracles.ref_parse_arena(text)
        assert (ref.owners, ref.edges) == (again.owners, again.edges)

    def test_sink_vertex(self):
        with pytest.raises(SinkVertex):
            parse_arena(SMALL.replace("edge u a e\n", ""))

    def test_reserved_character(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_arena(SMALL.replace("vertex u A", "vertex u@1 A")
                        .replace("edge u a e", "edge u@1 a e")
                        .replace("edge e b u", "edge e b u@1"))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            Game(load_arena("twoloops"), load_dpa("rabin"))


def node(pg, i):
    """The (vertex, state) pair that product node i of `pg` numbers."""
    return pg.names[i // pg.n], i % pg.n


def solve_keyed(pg):
    """`games._solve` on `pg`, keyed by (vertex, state) like the
    reference: Eve's region, Adam's region, the edge index of each Eve
    node in Eve's region and that of each Adam node in Adam's."""
    eve, choice = games._solve(pg)
    adam = [i for i in range(pg.nodes) if i not in eve]

    def chosen(region, player):
        return {node(pg, i): choice[i] - pg.offsets[i] for i in region
                if pg.owners[i] == player}

    return oracles.SolveResult(
        {node(pg, i) for i in eve}, {node(pg, i) for i in adam},
        chosen(eve, EVE), chosen(adam, ADAM))


def random_games():
    """The 1040 random games on which the solver meets the reference."""
    for name in DPA_NAMES:
        dpa = load_dpa(name)
        for seed in range(130):
            fraction = (0.0, 0.3, 0.5, 1.0)[seed % 4]
            arena = random_arena(seed % 40 + 1, 3, fraction,
                                 dpa.alphabet, seed)
            yield Game(arena, dpa)


def fixture_games():
    """Every fixture arena with each fixture condition on its alphabet."""
    for arena_name in ARENA_NAMES:
        arena = load_arena(arena_name)
        for name in DPA_NAMES:
            dpa = load_dpa(name)
            if dpa.alphabet == arena.alphabet:
                yield Game(arena, dpa)


class TestSolveParity:
    def test_tiny_forced_win(self):
        game = Game(load_arena("twoloops"), load_dpa("buchi_a"))
        res = solve_keyed(product_game(game))
        assert res.eve_region == {("center", 0)}
        assert res.adam_region == set()

    @pytest.mark.parametrize("condition", ["buchi_a", "infab", "onea"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_positional_enumeration(self, condition, seed):
        dpa = load_dpa(condition)
        arena = random_arena(3, 2, 0.5, dpa.alphabet, seed)
        pg = product_game(Game(arena, dpa))
        res = solve_keyed(pg)
        nodes = range(len(pg.owners))
        brute_owners = {node(pg, i): pg.owners[i] for i in nodes}
        brute_edges = {node(pg, i): [(node(pg, pg.target[j]), pg.priority[j])
                                     for j in range(pg.offsets[i],
                                                    pg.offsets[i + 1])]
                       for i in nodes}
        assert res.eve_region == brute_eve_region(brute_owners, brute_edges)


class TestSolveMatchesReference:
    """Zielonka on the numbered product against the reference, which
    splits a tuple-keyed product into Python objects: regions and both
    players' choices must be equal."""

    @staticmethod
    def solved(game):
        got = solve_keyed(product_game(game))
        ref = oracles.ref_solve_parity(*oracles.ref_product_game(game))
        assert got.eve_region == ref.eve_region
        assert got.adam_region == ref.adam_region
        assert got.eve_choice == ref.eve_choice
        assert got.adam_choice == ref.adam_choice
        return got

    def test_random_games(self):
        empty = Counter()
        for game in random_games():
            got = self.solved(game)
            empty["eve"] += not got.eve_region
            empty["adam"] += not got.adam_region
        assert empty["eve"] and empty["adam"]

    def test_fixture_arenas(self):
        for game in fixture_games():
            self.solved(game)

    @pytest.mark.parametrize("condition", DPA_NAMES)
    def test_mixed_arenas_of_200_to_500_vertices(self, condition):
        dpa = load_dpa(condition)
        for seed in range(6):
            arena = random_arena(200 + 60 * seed, 3, (0.3, 0.5, 0.7)[seed % 3],
                                 dpa.alphabet, seed)
            self.solved(Game(arena, dpa))

    def test_every_region_holds_an_edge_node(self, monkeypatch):
        """Zielonka's least priority is always an edge priority: every
        nonempty region it is called on holds an edge node, numbered at
        least the number of product nodes."""
        zielonka = games._zielonka
        calls = Counter()

        def recording(pg, region, size, choice):
            assert size == region.count(1)
            calls["nonempty" if size else "empty"] += 1
            assert not size or 1 in region[pg.nodes:]
            return zielonka(pg, region, size, choice)

        monkeypatch.setattr(games, "_zielonka", recording)
        for game in chain(random_games(), fixture_games()):
            games._solve(product_game(game))
        assert calls["nonempty"] > 1040 and calls["empty"]

    def test_partition_check_catches_a_node_listed_twice(self, monkeypatch):
        """Region sizes that add up do not make a partition: one node
        listed twice and another missing must raise."""
        zielonka = games._zielonka

        def broken(pg, region, size, choice):
            eve, adam = zielonka(pg, region, size, choice)
            if size == pg.nodes + len(pg.target):  # the outermost call
                listed = eve + adam
                twice, missing = listed[0], listed[-1]
                eve = [v for v in eve if v != missing] + [twice]
                adam = [v for v in adam if v != missing]
            return eve, adam

        monkeypatch.setattr(games, "_zielonka", broken)
        pg = product_game(Game(load_arena("w2game"), load_dpa("w2")))
        with pytest.raises(AssertionError, match="do not partition"):
            games._solve(pg)


class TestAdamWinsHisRegion:
    """Adam's choices, fixed on his region with every Eve edge kept,
    keep each play in his region, and no cycle there has an even least
    priority: the solver's Adam entries are a winning strategy."""

    def test_random_and_fixture_games(self):
        chosen = 0
        for game in chain(random_games(), fixture_games()):
            pg = product_game(game)
            eve, choice = games._solve(pg)
            adam = [i for i in range(pg.nodes) if i not in eve]

            def moves(i):
                edges = range(pg.offsets[i], pg.offsets[i + 1])
                if pg.owners[i] == ADAM:
                    assert choice[i] in edges
                    edges = [choice[i]]
                return [(pg.letter[j], pg.target[j], (pg.priority[j],))
                        for j in edges]

            plays = reachable_graph(adam, moves)
            assert eve.isdisjoint(plays.nodes)
            assert not nodes_reaching_accepting_cycle(plays)
            chosen += any(pg.owners[i] == ADAM for i in adam)
        assert chosen > 600


def self_loops(k):
    """An automaton over {a} whose state q loops with priority 2q, so
    that Zielonka's algorithm descends through all k priorities."""
    return Dpa(Alphabet("a"), [str(q) for q in range(k)], 0,
               [{"a": (q, 2 * q)} for q in range(k)])


class TestSolveGame:
    @pytest.mark.parametrize("k", [MAX_DISTINCT_PRIORITIES + 1, 1200])
    def test_too_many_priorities_fail_fast(self, k):
        with pytest.raises(TooManyPriorities,
                           match="^%d distinct priorities" % k):
            self_loops(k)

    def test_solves_at_the_priority_bound(self):
        dpa = self_loops(MAX_DISTINCT_PRIORITIES)
        arena = parse_arena("arena v1\nalphabet a\nvertex v E\nedge v a v\n")
        game = Game(arena, dpa)
        solution = solve_game(game)
        assert solution.winning_region == {"v"}
        assert verify_strategy(game, solution.strategy, solution.start_states)
        # the complement, every priority shifted by one, is within the bound
        lost = solve_game(Game(arena, complement_shift(dpa)))
        assert lost.winning_region == set()

    def test_strategy_leaving_the_region_is_caught(self, monkeypatch):
        # Eve wins at e by looping on a; her b edge leads to l, where
        # Adam loops on b forever
        game = Game(parse_arena("arena v1\nalphabet a b\nvertex e E\n"
                                "vertex l A\nedge e a e\nedge e b l\n"
                                "edge l b l\n"), load_dpa("buchi_a"))
        assert solve_game(game).winning_region == {"e"}
        solve = games._solve

        def leaving(pg):
            eve, choice = solve(pg)
            assert eve == {0} and pg.target[1] == 1  # (e, 0) -b-> (l, 0)
            choice[0] = 1
            return eve, choice

        monkeypatch.setattr(games, "_solve", leaving)
        with pytest.raises(AssertionError, match="leaves Eve's region"):
            solve_game(game)

    def test_w2game_region_and_memory(self):
        game = Game(load_arena("w2game"), load_dpa("w2"))
        solution = solve_game(game)
        assert solution.winning_region == {"u", "center"}
        assert solution.strategy.memory() <= 2
        assert verify_strategy(game, solution.strategy, solution.start_states)

    def test_twoloops_needs_memory_for_infab(self):
        game = Game(load_arena("twoloops"), load_dpa("infab"))
        solution = solve_game(game)
        assert solution.winning_region == {"center"}
        assert solution.strategy.memory() == 2
        assert verify_strategy(game, solution.strategy, solution.start_states)

    def test_empty_region(self):
        # Adam picks every letter and can loop on a forever
        arena = parse_arena(SMALL.replace("vertex e E", "vertex e A"))
        game = Game(arena, load_dpa("fin_a"))
        solution = solve_game(game)
        assert solution.winning_region == set()
        assert solution.start_states == ()

    @pytest.mark.parametrize("condition", ["buchi_a", "infab", "w2", "ex3"])
    @pytest.mark.parametrize("seed", range(10))
    def test_solution_verifies_from_every_memory_state(self, condition, seed):
        dpa = load_dpa(condition)
        arena = random_arena(4, 3, 0.6, dpa.alphabet, seed + 100)
        game = Game(arena, dpa)
        solution = solve_game(game)
        assert verify_strategy(game, solution.strategy,
                               solution.strategy.states)


    def test_leaves_the_recursion_limit_alone(self):
        dpa = load_dpa("ex3")
        arena = random_arena(3000, 3, 0.5, dpa.alphabet, seed=1)
        limit = sys.getrecursionlimit()
        assert solve_game(Game(arena, dpa)).winning_region
        assert sys.getrecursionlimit() == limit


class TestStrategies:
    def game(self):
        return Game(load_arena("twoloops"), load_dpa("buchi_a"))

    def test_memory_counts_states_per_vertex(self):
        s = Strategy(("m1", "m2"), (("m1", "a", "m2"), ("m2", "b", "m1")),
                     {"m1": "center", "m2": "center"})
        assert s.memory() == 2

    def test_duplicate_states_rejected(self):
        # a repeated state counted twice towards memory(), and reduction
        # kept both copies over one vertex
        with pytest.raises(InvalidStrategy, match="duplicate state 'm1'"):
            Strategy(("m1", "m1"), (("m1", "a", "m1"),), {"m1": "center"})

    @pytest.mark.parametrize("edge, message", [
        (("x", "a", "m1"), "^edge from unknown state 'x'$"),
        (("m1", "a", "x"), "^edge to unknown state 'x'$"),
    ])
    def test_edge_endpoints_must_be_states(self, edge, message):
        with pytest.raises(InvalidStrategy, match=message):
            Strategy(("m1",), (("m1", "a", "m1"), edge), {"m1": "center"})

    @pytest.mark.parametrize("states, edges, sigma, message", [
        (("m1",), (("m1", "a", "m1"),), {"m1": "center", "m2": "center"},
         "^sigma domain differs from the state set$"),
        (("m1",), (("m1", "a", "m1"),), {"m1": "nowhere"},
         "^state 'm1' maps to unknown vertex 'nowhere'$"),
        (("m1", "m2"), (("m1", "a", "m1"),), {"m1": "center", "m2": "center"},
         "^state 'm2' has no outgoing edge$"),
    ])
    def test_validate_rejects_ill_formed(self, states, edges, sigma, message):
        s = Strategy(states, edges, sigma)
        with pytest.raises(InvalidStrategy, match=message):
            validate_strategy(self.game(), s)

    def test_validate_accepts_alternation(self):
        validate_strategy(self.game(), Strategy(
            ("m1", "m2"), (("m1", "a", "m2"), ("m2", "b", "m1")),
            {"m1": "center", "m2": "center"}))

    def test_validate_rejects_two_eve_moves(self):
        s = Strategy(("m1",), (("m1", "a", "m1"), ("m1", "b", "m1")),
                     {"m1": "center"})
        with pytest.raises(InvalidStrategy, match="exactly one"):
            validate_strategy(self.game(), s)

    def test_validate_rejects_non_arena_edge(self):
        game = Game(load_arena("w2game"), load_dpa("w2"))
        s = Strategy(("mu", "mc"), (("mu", "d", "mc"), ("mc", "c", "mc")),
                     {"mu": "u", "mc": "center"})
        with pytest.raises(InvalidStrategy, match="project"):
            validate_strategy(game, s)

    def test_validate_rejects_missing_adam_move(self):
        game = Game(load_arena("w2game"), load_dpa("w2"))
        s = Strategy(("mu", "mc"), (("mu", "a", "mc"), ("mc", "c", "mc")),
                     {"mu": "u", "mc": "center"})
        with pytest.raises(InvalidStrategy, match="missing"):
            validate_strategy(game, s)

    def test_verify_detects_losing_choice(self):
        s = Strategy(("m1",), (("m1", "b", "m1"),), {"m1": "center"})
        assert not verify_strategy(self.game(), s, ["m1"])

    def test_verify_accepts_winning_choice(self):
        s = Strategy(("m1",), (("m1", "a", "m1"),), {"m1": "center"})
        assert verify_strategy(self.game(), s, ["m1"])

    def test_verify_rejects_unknown_start(self):
        s = Strategy(("m1",), (("m1", "a", "m1"),), {"m1": "center"})
        with pytest.raises(PreconditionViolated, match="unknown start"):
            verify_strategy(self.game(), s, ["m1", "m2"])

    def test_verify_rejects_bare_string_starts(self):
        game = Game(load_arena("w2game"), load_dpa("w2"))
        solution = solve_game(game)
        with pytest.raises(PreconditionViolated,
                           match="list, not the string 'center@0'"):
            verify_strategy(game, solution.strategy, "center@0")
        # a one-letter name would otherwise be read as a one-element list
        s = Strategy(("m",), (("m", "a", "m"),), {"m": "center"})
        assert verify_strategy(self.game(), s, ["m"])
        with pytest.raises(PreconditionViolated,
                           match="list, not the string 'm'"):
            verify_strategy(self.game(), s, "m")


def random_memory_strategy(arena, rng, max_memory=3):
    """A strategy on an Eve-only arena with 1 to `max_memory` states over
    each vertex; each state takes one random arena move into a random
    state over its target."""
    over = {v: ["%s.%d" % (v, i) for i in range(rng.randint(1, max_memory))]
            for v in arena.owners}
    edges = []
    for v, states in over.items():
        for st in states:
            letter, dst = rng.choice(arena.out_edges(v))
            edges.append((st, letter, rng.choice(over[dst])))
    sigma = {st: v for v, states in over.items() for st in states}
    return Strategy(list(sigma), edges, sigma)


class TestWinsWalk:
    """`_wins` decides plays with one move per state by a linear walk,
    building no product; it must agree with the threshold/SCC sweep on
    the plays' product with the complement automaton."""

    @staticmethod
    def decide(monkeypatch, game, out_edges, starts):
        """(verdict of `_wins` on the plays from `starts`, verdict of the
        sweep on their product with the complement, whether `_wins`
        itself built that product and swept it)."""
        plays = reachable_graph(starts, out_edges)
        built, swept = [], []

        def recording_graph(roots, moves):
            built.append(reachable_graph(roots, moves))
            return built[-1]

        def recording_sweep(graph):
            swept.append(graph)
            return nodes_reaching_accepting_cycle(graph)

        with monkeypatch.context() as m:
            m.setattr(games, "reachable_graph", recording_graph)
            m.setattr(games, "nodes_reaching_accepting_cycle", recording_sweep)
            verdict = games._wins(game, plays, starts)
        delta = complement_shift(game.condition).delta

        def moves(node):
            return [(letter, (dst, delta[node[1]][letter][0]),
                     (delta[node[1]][letter][1],))
                    for letter, dst in plays.edges[plays.index[node[0]]]]

        roots = [(st, game.condition.initial) for st in starts]
        graph = reachable_graph(roots, moves)
        swept_verdict = not set(roots) & nodes_reaching_accepting_cycle(graph)
        assert built == swept
        assert len(swept) <= 1
        if swept:
            # `_wins` numbers play state i with automaton state q i·n + q
            n = game.condition.n

            def named(node):
                return plays.nodes[node // n], node % n

            assert list(as_dict_graph(swept[0], named).items()) \
                == list(as_dict_graph(graph).items())
        return verdict, swept_verdict, bool(swept)

    @pytest.mark.parametrize("condition", ["buchi_a", "fin_a", "rabin", "ex3"])
    def test_walk_matches_sweep_on_eve_only_strategies(self, monkeypatch,
                                                       condition):
        dpa = load_dpa(condition)
        rng = random.Random(9)
        verdicts = Counter()
        one_loser = 0
        for seed in range(120):
            game = Game(random_arena(seed % 6 + 1, 3, 1.0, dpa.alphabet, seed),
                        dpa)
            s = random_memory_strategy(game.arena, rng)
            wins = {}
            for st in s.states:
                verdict, swept_verdict, swept = self.decide(
                    monkeypatch, game, s.out_edges, [st])
                assert not swept
                assert verdict == swept_verdict
                wins[st] = verdict
                verdicts[verdict] += 1
            several = rng.sample(s.states, min(len(s.states), 4))
            lists = [several]
            winners = [st for st in s.states if wins[st]]
            losers = [st for st in s.states if not wins[st]]
            if winners and losers:
                # the only losing start comes last
                lists.append(winners[:3] + losers[:1])
                one_loser += 1
            for starts in lists:
                verdict, swept_verdict, swept = self.decide(
                    monkeypatch, game, s.out_edges, starts)
                assert not swept
                assert verdict == swept_verdict
                assert verdict == all(wins[st] for st in starts)
                assert verify_strategy(game, s, starts) == verdict
        assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts
        assert one_loser >= 20

    def test_branching_adam_vertices_take_the_sweep(self, monkeypatch):
        game = Game(load_arena("w2game"), load_dpa("w2"))
        s = solve_game(game).strategy
        assert any(len(s.out_edges(st)) > 1 for st in s.states)
        verdict, swept_verdict, swept = self.decide(
            monkeypatch, game, s.out_edges, s.states)
        assert swept
        assert verdict is swept_verdict is True

    def test_walk_matches_sweep_on_criterion_5_strategies(self, monkeypatch):
        # every intermediate strategy of the merge loop on acceptance
        # criterion 5's 400 arenas (the reference loop verifies each one
        # whole), and each reduced strategy from all its states
        checked = []

        def recording_verify(game, s, starts):
            checked.append((game, s, list(starts)))
            return verify_strategy(game, s, starts)

        monkeypatch.setattr(oracles, "verify_strategy", recording_verify)
        for name in ("buchi_a", "fin_a", "rabin", "ex3"):
            dpa = load_dpa(name)
            for i in range(100):
                game = Game(random_arena(i % 5 + 1, 3, 1.0, dpa.alphabet, i),
                            dpa)
                solution = solve_game(game)
                reduced = oracles.ref_reduce(game, solution.strategy,
                                             solution.winning_region)
                checked.append((game, reduced, list(reduced.states)))
        assert len(checked) > 800
        for game, s, starts in checked:
            verdict, swept_verdict, swept = self.decide(
                monkeypatch, game, s.out_edges, starts)
            assert not swept
            assert verdict == swept_verdict


class TestFindPositional:
    def test_w2game_has_positional_win(self):
        game = Game(load_arena("w2game"), load_dpa("w2"))
        s = find_positional(game, ["center"])
        assert s is not None
        assert s.memory() == 1
        # staying at center on b or c wins; handing control back does not
        assert s.out_edges("center")[0][1] == "center"
        assert verify_strategy(game, s, ["center"])

    def test_rejects_bare_string_starts(self):
        game = Game(load_arena("w2game"), load_dpa("w2"))
        with pytest.raises(PreconditionViolated,
                           match="list, not the string 'center'"):
            find_positional(game, "center")
        # the one-letter vertex u would otherwise be read as ["u"]
        assert find_positional(game, ["u"]) is not None
        with pytest.raises(PreconditionViolated,
                           match="list, not the string 'u'"):
            find_positional(game, "u")

    def test_infab_twoloops_has_none(self):
        game = Game(load_arena("twoloops"), load_dpa("infab"))
        assert find_positional(game, ["center"]) is None

    def test_cap(self):
        # the check runs before any choice function is tried
        dpa = load_dpa("buchi_a")
        arena = random_arena(40, 3, 1.0, dpa.alphabet, seed=5)
        with pytest.raises(SearchSpaceTooLarge,
                           match=r"^\d+ positional strategies exceed the "
                                 r"cap of 1000000$"):
            find_positional(Game(arena, dpa), ["v0"])

    @pytest.mark.parametrize("condition", ["buchi_a", "onea", "infab"])
    @pytest.mark.parametrize("chunk", range(4))
    def test_found_strategies_verify(self, condition, chunk):
        dpa = load_dpa(condition)
        for i in range(50):
            seed = chunk * 50 + i
            arena = random_arena(4, 2, 0.7, dpa.alphabet, seed)
            game = Game(arena, dpa)
            found = find_positional(game, ["v0"])
            solution = solve_game(game)
            if found is not None:
                assert found.memory() == 1
                assert verify_strategy(game, found, ["v0"])
                assert "v0" in solution.winning_region
            elif "v0" in solution.winning_region:
                # no positional win exists, so the product strategy must
                # genuinely use memory somewhere reachable from v0
                assert solution.strategy.memory() > 1

    @pytest.mark.parametrize("condition", ["buchi_a", "fin_a", "rabin", "ex3"])
    @pytest.mark.parametrize("chunk", range(4))
    def test_positional_conditions_need_no_memory(self, condition, chunk):
        # on Eve-only arenas a positional condition admits a positional win
        # from every vertex of the winning region
        dpa = load_dpa(condition)
        for i in range(50):
            seed = chunk * 50 + i
            arena = random_arena(seed % 6 + 1, 3, 1.0, dpa.alphabet, seed)
            game = Game(arena, dpa)
            solution = solve_game(game)
            for v in sorted(solution.winning_region):
                assert find_positional(game, [v]) is not None


class TestOneShotStarts:
    """Starts given as an iterator are read once, then kept: the checks
    of the starts must not leave the win test with none."""

    def gadget(self):
        a = load_dpa("w2")
        arena, starts = gadget_from_witness(check_positional(a).witness,
                                            a.alphabet)
        return Game(arena, a), starts

    def test_verify_strategy(self):
        game, starts = self.gadget()
        arena = game.arena
        # Eve's first move everywhere: positional, so it loses the gadget
        edges = [(v, letter, dst) for v in arena.owners
                 for letter, dst in (arena.out_edges(v)[:1]
                                     if arena.owners[v] == EVE
                                     else arena.out_edges(v))]
        s = Strategy(tuple(arena.owners), edges, {v: v for v in arena.owners})
        assert not verify_strategy(game, s, starts)
        assert not verify_strategy(game, s, iter(starts))

    def test_find_positional(self):
        game, starts = self.gadget()
        assert find_positional(game, starts) is None
        assert find_positional(game, iter(starts)) is None


class TestRandomArena:
    def test_deterministic(self):
        dpa = load_dpa("buchi_a")
        a1 = random_arena(5, 3, 0.5, dpa.alphabet, 42)
        a2 = random_arena(5, 3, 0.5, dpa.alphabet, 42)
        assert a1.owners == a2.owners
        assert a1.edges == a2.edges
        a3 = random_arena(5, 3, 0.5, dpa.alphabet, 43)
        assert (a1.owners, a1.edges) != (a3.owners, a3.edges)

    def test_eve_only(self):
        arena = random_arena(6, 2, 1.0, load_dpa("buchi_a").alphabet, 0)
        assert arena.eve_only()

    def test_degree_bound(self):
        arena = random_arena(6, 3, 0.5, load_dpa("rabin").alphabet, 1)
        assert all(1 <= len(arena.out_edges(v)) <= 3 for v in arena.owners)

    @pytest.mark.parametrize("n_vertices, max_out_degree, eve_fraction, "
                             "message", [
        (0, 3, 0.5, r"^arena size parameters must be positive$"),
        (3, 0, 0.5, r"^arena size parameters must be positive$"),
        (3, 3, 1.5, r"^eve_fraction must be within \[0, 1\]$"),
        (3, 3, -0.1, r"^eve_fraction must be within \[0, 1\]$"),
    ])
    def test_rejects_bad_parameters(self, n_vertices, max_out_degree,
                                    eve_fraction, message):
        with pytest.raises(PreconditionViolated, match=message):
            random_arena(n_vertices, max_out_degree, eve_fraction,
                         load_dpa("buchi_a").alphabet, 0)

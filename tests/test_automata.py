import random
from collections import Counter
from itertools import product as iproduct
from operator import lt

import pytest

import posit
from posit import automata, cli, cycles
from posit import (Alphabet, Dpa, LassoWord, ParseError,
                   PreconditionViolated, ResidualGraphTooLarge, UnknownLetter,
                   member, parse_dpa, prepend, reachable_states,
                   residual_graph, residual_included)
from posit.automata import _lasso_mask
from posit.cycles import (_accepting_components, _walk, accepting_lasso_from,
                          nodes_reaching_accepting_cycle, reachable_graph,
                          tarjan_scc)
from posit.fixtures import DPA_NAMES, load_dpa

from oracles import (SEMANTICS, as_dict_graph, complement_shift,
                     counter_buchi, format_dpa, lassos_up_to, member_from,
                     moves_of, pair_graph, random_dpa, random_lassos,
                     random_letter_graph, ref_accepting_components,
                     ref_accepting_lasso_from, ref_lasso_mask,
                     ref_nodes_reaching_accepting_cycle, sim_member)

GOOD = """\
dpa v1
alphabet a b
states 2
initial 0
trans 0 a 1 3  # comment
trans 0 b 0 1
trans 1 a 1 2
trans 1 b 0 0
"""

NAMED = """\
dpa v1
alphabet a b
states s t
initial s
trans s a t 0
trans s b s 1
trans t a t 2
trans t b s 3
"""

ROW = {"a": (0, 0), "b": (0, 1)}


class TestParse:
    def test_counts_and_names(self):
        a = parse_dpa(GOOD)
        assert a.n == 2
        assert a.names == ("0", "1")
        assert a.initial == 0
        assert a.delta[0]["a"] == (1, 3)

    def test_named_states(self):
        a = load_dpa("res")
        assert a.names == ("s", "A", "B", "D")
        assert a.state_id("D") == 3
        with pytest.raises(ParseError):
            a.state_id("nope")

    def test_round_trip_all_fixtures(self):
        for name in DPA_NAMES:
            a = load_dpa(name)
            b = parse_dpa(format_dpa(a))
            assert b.names == a.names
            assert b.initial == a.initial
            assert b.delta == a.delta
            assert format_dpa(b) == format_dpa(a)

    @pytest.mark.parametrize("old, new, message", [
        ("dpa v1", "dpa v2", "header"),
        ("trans 0 a 1 3", "trans 0 a 1 17", "priority"),
        ("trans 0 a 1 3", "trans 0 a 1 -1", "priority"),
        ("trans 0 a 1 3", "trans 0 e 1 3", "alphabet"),
        ("trans 0 a 1 3", "trans 2 a 1 3", "unknown state"),
        ("initial 0", "initial 5", "unknown initial"),
    ])
    def test_bad_lines(self, old, new, message):
        with pytest.raises(ParseError, match=message):
            parse_dpa(GOOD.replace(old, new))

    def test_missing_transition(self):
        with pytest.raises(ParseError, match="no transition"):
            parse_dpa(GOOD.replace("trans 1 b 0 0\n", ""))

    def test_duplicate_transition(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_dpa(GOOD + "trans 1 b 1 0\n")

    def test_state_count_beyond_the_trans_lines(self):
        # refused before a single name is built
        text = GOOD.replace("states 2", "states 1000000000000")
        with pytest.raises(ParseError, match="line 3: 1000000000000 states "
                           "need 2000000000000 trans lines, the file has 4: "
                           "state 2 has no transition on 'a'"):
            parse_dpa(text)
        with pytest.raises(ParseError, match="2 states need 4 trans lines, "
                           "the file has 3: state 0 has no transition on 'b'"):
            parse_dpa(GOOD.replace("trans 0 b 0 1\n", ""))

    @pytest.mark.parametrize("old, new, message", [
        ("trans 0 a 1 3", "trans 0 a 1 1_0", "line 5: bad priority '1_0'"),
        ("trans 0 a 1 3", "trans 0 a 1 \u0663", "bad priority"),
        ("trans 0 a 1 3", "trans 0 a 1 +3", "bad priority"),
    ])
    def test_numbers_are_ascii_digits(self, old, new, message):
        # int() reads '1_0' as 10 and the Arabic-Indic digit three as 3
        with pytest.raises(ParseError, match=message):
            parse_dpa(GOOD.replace(old, new))

    @pytest.mark.parametrize("name", ["\u00b2", "\u0663", "\u0662"])
    def test_lone_non_ascii_digit_names_a_state(self, tmp_path, capsys,
                                                name):
        # a count is ASCII digits only, as `1_0` names one state too
        path = tmp_path / "one.dpa"
        path.write_text("dpa v1\nalphabet a\nstates %s\ninitial %s\n"
                        "trans %s a %s 0\n" % ((name,) * 4), encoding="utf-8")
        assert parse_dpa(path.read_text(encoding="utf-8")).names == (name,)
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "positional: true\n"

    def test_reserved_character_in_name(self):
        text = "\n".join(["dpa v1", "alphabet a", "states p@0",
                          "initial p@0", "trans p@0 a p@0 0"])
        with pytest.raises(ParseError, match="reserved"):
            parse_dpa(text)

    @pytest.mark.parametrize("text, message", [
        (GOOD.replace("states 2", "states 2\nstates 2"),
         "^line 4: duplicate states$"),
        (NAMED.replace("trans t b s 3\n", ""),
         "^state t has no transition on 'b'$"),
    ])
    def test_duplicate_states_line_and_named_state_left_open(self, text,
                                                            message):
        with pytest.raises(ParseError, match=message):
            parse_dpa(text)

    def test_named_states_file_parses(self):
        assert parse_dpa(NAMED).delta == ({"a": (1, 0), "b": (0, 1)},
                                          {"a": (1, 2), "b": (0, 3)})


class TestDpaChecks:
    @pytest.mark.parametrize("names, initial, delta, error, message", [
        (("p", "q"), 0, [ROW], ParseError,
         "^state name count does not match transition table$"),
        ((), 0, [], ParseError, "^automaton needs at least one state$"),
        (("p", "p"), 0, [ROW, ROW], ParseError, "^duplicate state name$"),
        (("p",), 1, [ROW], ParseError, "^initial state out of range$"),
        (("p",), 0, [{"a": (0, 0)}], ParseError,
         "^state p has no transition on 'b'$"),
        (("p",), 0, [dict(ROW, c=(0, 0))], UnknownLetter,
         "^letter 'c' not in alphabet$"),
        (("p",), 0, [dict(ROW, b=(1, 0))], ParseError,
         "^transition target out of range$"),
        (("p",), 0, [dict(ROW, b=(0, -1))], ParseError,
         "^negative priority$"),
    ])
    def test_rejects(self, names, initial, delta, error, message):
        with pytest.raises(error, match=message):
            Dpa(Alphabet("ab"), names, initial, delta)

    def test_accepts_the_same_table_well_formed(self):
        assert Dpa(Alphabet("ab"), ("p",), 0, [ROW]).delta == (ROW,)


class TestRuns:
    def test_unknown_letter(self):
        a = parse_dpa(GOOD)
        with pytest.raises(UnknownLetter, match="^letter 'x' not in alphabet$"):
            member(a, LassoWord("ax", "y"))


class TestMember:
    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_member_matches_semantics_exhaustive(self, name):
        a = load_dpa(name)
        sem = SEMANTICS[name]
        for w in lassos_up_to(a.alphabet, 2, 3):
            assert member(a, w) == sem(w), "%s on %s" % (name, w)
            # the reference the brute property checks run on
            assert member_from(a, a.initial, w) == sem(w), w

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_member_matches_semantics_random(self, name):
        a = load_dpa(name)
        sem = SEMANTICS[name]
        for w in random_lassos(a.alphabet, 300, seed=7):
            assert member(a, w) == sem(w), "%s on %s" % (name, w)

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_member_matches_unrolling_simulator(self, name):
        a = load_dpa(name)
        for w in random_lassos(a.alphabet, 200, seed=11):
            assert member(a, w) == sim_member(name, w), "%s on %s" % (name, w)

    def test_member_from_other_states(self):
        a = load_dpa("res")
        A, B = a.state_id("A"), a.state_id("B")
        for w, accepting in ((LassoWord("", "b"), {A}),
                             (LassoWord("ab", "c"), {B})):
            assert {r for r in range(a.n) if member_from(a, r, w)} \
                == accepting
            assert _lasso_mask(a, w) == sum(1 << r for r in accepting)

    def test_membership_invariant_under_normal_forms(self):
        a = load_dpa("infab")
        assert member(a, LassoWord("", "ab")) == member(a, LassoWord("a", "ba"))
        assert member(a, LassoWord("", "ab")) == member(a, LassoWord("", "abab"))


class TestComplement:
    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_flips_every_verdict(self, name):
        a = load_dpa(name)
        c = complement_shift(a)
        for w in lassos_up_to(a.alphabet, 1, 2):
            assert member(c, w) == (not member(a, w))


class TestProduct:
    def test_conj_empty_intersection(self):
        a = load_dpa("buchi_a")
        assert accepting_lasso_from(residual_graph(a, [(0, 0)])) is None

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_conj_verdicts_match_brute_enumeration(self, name):
        a = load_dpa(name)

        def pair(node):
            return divmod(node, a.n)

        g = residual_graph(a, iproduct(range(a.n), repeat=2))
        assert as_dict_graph(g, pair) == pair_graph(a)
        bad = set(map(pair, nodes_reaching_accepting_cycle(g)))
        for p, q in map(pair, g.nodes):
            # one root: exactly the pairs (p, q) reaches, with the same
            # edges, and the same inclusion verdict
            reach = {(p, q)}
            while True:
                step = {(a.delta[x][c][0], a.delta[y][c][0])
                        for x, y in reach for c in a.alphabet}
                if step <= reach:
                    break
                reach |= step
            sub = residual_graph(a, [(p, q)])
            assert set(map(pair, sub.nodes)) == reach
            assert all(out == g.edges[g.index[node]]
                       for node, out in zip(sub.nodes, sub.edges))
            assert (residual_included(a, p, q) is None) == ((p, q) not in bad)
        domain = lassos_up_to(a.alphabet, 2, 3)
        states = sorted(reachable_states(a))
        for p in states:
            for q in states:
                w = accepting_lasso_from(
                    reachable_graph([p * a.n + q], moves_of(g)))
                # the one sweep gives the same relation as the pair search
                assert ((p, q) in bad) == (w is not None)
                if w is not None:
                    assert member_from(a, p, w)
                    assert not member_from(a, q, w)
                else:
                    for cand in domain:
                        assert not (member_from(a, p, cand)
                                    and not member_from(a, q, cand))


class TestReachableGraph:
    def test_breadth_first_and_repeated_roots_once(self):
        succ = {0: [1, 2], 1: [3], 2: [3, 0], 3: [4], 4: [], 5: [0]}
        calls = []

        def moves(v):
            calls.append(v)
            return [("x", d) for d in succ[v]]

        g = reachable_graph([2, 2, 1, 2], moves)
        assert g.nodes == [2, 1, 3, 0, 4]
        assert calls == [2, 1, 3, 0, 4]
        assert g.index == {2: 0, 1: 1, 3: 2, 0: 3, 4: 4}
        assert g.edges[g.index[2]] == [("x", 3), ("x", 0)]
        assert g.edges[g.index[4]] == []
        # each successor by the number the build gave it
        assert g.succ == [[2, 3], [2], [4], [1, 0], []]

    def test_cap_counts_the_nodes_discovered(self):
        def moves(v):
            return [("x", (v + 1) % 5)]

        assert len(reachable_graph([0], moves, cap=5).nodes) == 5
        for roots in ([0], [0, 1, 2, 3, 4, 5]):
            with pytest.raises(ResidualGraphTooLarge,
                               match="^residual graph exceeds 4 nodes$"):
                reachable_graph(roots, moves, cap=4)


class TestWalk:
    @pytest.mark.parametrize("least, accepted", [(0, True), (1, False)])
    def test_least_priority_on_the_cycle_decides(self, least, accepted):
        # 0 -> 1 -> 2 -> 1: the edge 0 -> 1, priority 0, is off the cycle
        moves = {0: (1, 0), 1: (2, least), 2: (1, 3)}
        memo = {}
        assert _walk(0, moves.__getitem__, memo) is accepted
        assert memo == dict.fromkeys(moves, accepted)


class TestLassoWalk:
    """`member` and `_lasso_mask` walk a lasso a whole period at a time;
    the reference walks one letter position at a time, and `member_from`
    runs periods until the entry state repeats."""

    @staticmethod
    def agree(a, w):
        mask = _lasso_mask(a, w)
        assert mask == ref_lasso_mask(a, w), (a.delta, w)
        assert mask == sum(1 << r for r in range(a.n)
                           if member_from(a, r, w)), (a.delta, w)
        assert member(a, w) == bool(mask >> a.initial & 1), (a.delta, w)

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_fixtures_on_every_short_lasso(self, name):
        a = load_dpa(name)
        for w in lassos_up_to(a.alphabet, 2, 3):
            self.agree(a, w)

    def test_random_automata(self):
        rng = random.Random(25)
        for seed in range(400):
            a = random_dpa(rng, max_states=5, max_priority=5)
            for w in random_lassos(a.alphabet, 4, seed, 3, 7):
                self.agree(a, w)

    @pytest.mark.parametrize("w, letter", [
        (LassoWord("az", "y"), "z"),
        (LassoWord("a", "bzy"), "z"),
        (LassoWord("yz", "a"), "y"),
    ])
    def test_unknown_letter_prefix_first(self, w, letter):
        a = load_dpa("res")
        message = "^letter '%s' not in alphabet$" % letter
        for decide in (member, _lasso_mask, ref_lasso_mask,
                       lambda a, w: member_from(a, a.initial, w)):
            with pytest.raises(UnknownLetter, match=message):
                decide(a, w)

    def test_memo_holds_at_most_one_entry_per_state(self, monkeypatch):
        sizes = []

        def recording_walk(node, step, memo):
            verdict = _walk(node, step, memo)
            sizes.append(len(memo))
            return verdict

        monkeypatch.setattr(automata, "_walk", recording_walk)
        rng = random.Random(26)
        cases = [(counter_buchi(48), LassoWord("ba", "ab" * 500))]
        cases += [(a, w) for a in (random_dpa(rng, max_states=5)
                                   for _ in range(50))
                  for w in random_lassos(a.alphabet, 3, 0, 3, 9)]
        for a, w in cases:
            for decide in (member, _lasso_mask):
                sizes.clear()
                decide(a, w)
                assert sizes and max(sizes) <= a.n, (decide, a.delta, w)


class TestSweep:
    """The sweep on node numbers against the dict-keyed sweep it
    replaced, on random letter graphs with 1-3 coordinates."""

    def test_tarjan_lists_only_components_with_a_cycle(self):
        # 3 and 4 are lone nodes without a self-loop; 2 has one
        assert tarjan_scc([[1], [0, 2], [2], [0], [3, 0]]) \
            == [[2], [1, 0]]

    def test_random_letter_graphs(self):
        rng = random.Random(27)
        seen = Counter()

        def sweep(graph):
            return [(t, {graph.nodes[v] for v in comp})
                    for t, comp in _accepting_components(graph)]

        for _ in range(600):
            graph, main = random_letter_graph(rng)
            # every node a root: numbered in the dict's own order
            numbered = reachable_graph(graph, graph.__getitem__)
            assert numbered.nodes == list(graph)
            found = sweep(numbered)
            assert found == [(t, set(comp)) for t, comp
                             in ref_accepting_components(graph)], graph
            roots = rng.choices(main, k=rng.randint(1, 3))
            sub = reachable_graph(roots, graph.__getitem__)
            reached = sweep(sub)
            assert reached == [(t, set(comp)) for t, comp
                               in ref_accepting_components(as_dict_graph(sub))
                               ], (graph, roots)
            assert nodes_reaching_accepting_cycle(numbered) \
                == ref_nodes_reaching_accepting_cycle(graph)
            for v in graph:
                assert accepting_lasso_from(
                    reachable_graph([v], graph.__getitem__)) \
                    == ref_accepting_lasso_from(graph, v), (graph, v)
            seen["coordinates %d" % len(graph["i0"][0][2])] += 1
            seen["island swept"] += any(comp == {"i0", "i1"}
                                        for _t, comp in found)
            seen["island unreached"] += "i0" not in sub.index
            seen["self-loop component"] += any(len(comp) == 1
                                               for _t, comp in found)
            seen["self-loop below threshold"] += any(
                d == v and any(map(lt, p, t))
                for t, _comp in found for v in main
                for _c, d, p in graph[v])
            seen["main part accepting"] += bool(reached)
        assert min(seen.values()) >= 50 and len(seen) == 8, seen

    def test_thresholds_no_kept_edge_meets_are_skipped(self, monkeypatch):
        runs = []

        def counting(succ):
            runs.append(len(succ))
            return tarjan_scc(succ)

        monkeypatch.setattr(cycles, "tarjan_scc", counting)
        # the residual edges of counter_buchi carry (0, 1) and (1, 2):
        # at the one threshold, (0, 2), only (1, 2) is kept, and its
        # first coordinate is not 0
        a = counter_buchi(8)
        graph = residual_graph(a, iproduct(range(a.n), repeat=2))
        assert {edge[2] for out in graph.edges for edge in out} \
            == {(0, 1), (1, 2)}
        assert nodes_reaching_accepting_cycle(graph) == set()
        assert runs == []
        # L(A) is not included in L(B) in res: a threshold is met, and
        # Tarjan runs
        a = load_dpa("res")
        pair = (a.state_id("A"), a.state_id("B"))
        assert nodes_reaching_accepting_cycle(residual_graph(a, [pair]))
        assert runs

    def test_residual_graphs_of_random_dpas(self):
        # several even thresholds per coordinate: priorities 0..16
        rng = random.Random(29)
        seen = Counter()
        for _ in range(300):
            a = random_dpa(rng, max_states=8, max_priority=16)
            tuples = pair_graph(a)
            pairs = list(tuples)
            bad = nodes_reaching_accepting_cycle(residual_graph(a, pairs))
            assert {divmod(x, a.n) for x in bad} \
                == ref_nodes_reaching_accepting_cycle(tuples), a.delta
            for p, q in pairs:
                w = residual_included(a, p, q)
                assert w == ref_accepting_lasso_from(tuples, (p, q)), \
                    (a.delta, p, q)
                seen["lasso" if w else "included"] += 1
            axes = [{pri for row in a.delta for _t, pri in row.values()
                     if pri % 2 == parity} for parity in (0, 1)]
            seen["thresholds"] += len(axes[0]) * len(axes[1]) >= 4
        assert min(seen.values()) >= 100, seen


class TestResiduals:
    def test_included_none_for_empty_residual(self):
        a = load_dpa("res")
        assert residual_included(a, a.state_id("D"), a.state_id("A")) is None

    def test_witness_for_failure(self):
        a = load_dpa("res")
        w = residual_included(a, a.state_id("A"), a.state_id("B"))
        assert w == LassoWord("", "b")

    def test_cap_charges_only_the_pairs_explored(self, monkeypatch):
        a = counter_buchi(48)
        # (0, 1) reaches 144 of the 2304 pairs
        explored = len(residual_graph(a, [(0, 1)]).nodes)
        assert explored == 144
        monkeypatch.setattr(automata, "RESIDUAL_CAP", explored)
        assert residual_included(a, 0, 1) is None
        with pytest.raises(ResidualGraphTooLarge,
                           match="^residual graph exceeds 144 nodes$"):
            residual_graph(a, iproduct(range(a.n), repeat=2))
        monkeypatch.setattr(automata, "RESIDUAL_CAP", explored - 1)
        with pytest.raises(ResidualGraphTooLarge,
                           match="^residual graph exceeds 143 nodes$"):
            residual_included(a, 0, 1)

    @pytest.mark.parametrize("p, q", [(0, 4), (-1, 0), (0, "A")])
    def test_rejects_unknown_state_ids(self, p, q):
        with pytest.raises(PreconditionViolated):
            residual_included(load_dpa("res"), p, q)

    def test_reachable_states_with_access_words(self):
        a = load_dpa("res")
        access = reachable_states(a)
        assert access == {0: "", 1: "a", 2: "b", 3: "c"}

    def test_prepend_consistency(self):
        a = load_dpa("onea")
        w = LassoWord("", "b")
        state = a.delta[a.initial]["a"][0]
        assert member(a, prepend("a", w)) == member_from(a, state, w)


class TestExports:
    def test_every_public_name_resolves(self):
        for name in posit.__all__:
            assert hasattr(posit, name), name

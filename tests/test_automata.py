from itertools import product as iproduct

import pytest

import posit
from posit import (LassoWord, ParseError, PreconditionViolated,
                   UnknownLetter, member, parse_dpa, prepend,
                   reachable_states, residual_graph, residual_included)
from posit.automata import _lasso_mask
from posit.cycles import (accepting_lasso_from, nodes_reaching_accepting_cycle,
                          reachable_graph)
from posit.fixtures import DPA_NAMES, load_dpa

from oracles import (SEMANTICS, complement_shift, format_dpa, lassos_up_to,
                     member_from, pair_graph, random_lassos, sim_member)

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
        ("states 2", "states \u0662", "line 3: bad state count"),
    ])
    def test_numbers_are_ascii_digits(self, old, new, message):
        # int() reads '1_0' as 10 and the Arabic-Indic digit three as 3
        with pytest.raises(ParseError, match=message):
            parse_dpa(GOOD.replace(old, new))

    def test_reserved_character_in_name(self):
        text = "\n".join(["dpa v1", "alphabet a", "states p@0",
                          "initial p@0", "trans p@0 a p@0 0"])
        with pytest.raises(ParseError, match="reserved"):
            parse_dpa(text)


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
        assert accepting_lasso_from(residual_graph(a, [(0, 0)]),
                                    (0, 0)) is None

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_conj_verdicts_match_brute_enumeration(self, name):
        a = load_dpa(name)
        g = residual_graph(a, iproduct(range(a.n), repeat=2))
        assert g == pair_graph(a)
        bad = nodes_reaching_accepting_cycle(g)
        for p, q in g:
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
            assert set(sub) == reach
            assert all(sub[node] == g[node] for node in sub)
            assert (residual_included(a, p, q) is None) == ((p, q) not in bad)
        domain = lassos_up_to(a.alphabet, 2, 3)
        states = sorted(reachable_states(a))
        for p in states:
            for q in states:
                w = accepting_lasso_from(g, (p, q))
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
        assert list(g) == [2, 1, 3, 0, 4]
        assert calls == [2, 1, 3, 0, 4]
        assert g[2] == [("x", 3), ("x", 0)]
        assert g[4] == []


class TestResiduals:
    def test_included_none_for_empty_residual(self):
        a = load_dpa("res")
        assert residual_included(a, a.state_id("D"), a.state_id("A")) is None

    def test_witness_for_failure(self):
        a = load_dpa("res")
        w = residual_included(a, a.state_id("A"), a.state_id("B"))
        assert w == LassoWord("", "b")

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

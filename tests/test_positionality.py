import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

import posit
from posit import (InvalidWitness, LassoWord, MonoidTooLarge,
                   PositionalityVerdict, PreconditionViolated, PriorityMonoid,
                   ResidualGraphTooLarge, UnknownLetter, Witness1, Witness2,
                   Witness3, WitnessRecheckFailed, check_positional,
                   check_property1, check_property2, check_property3,
                   compare_lassos, member, prepend, reachable_states,
                   residual_graph, residual_included, verify_order_laws,
                   witness_from_dict)
from posit import automata, cycles, positionality
from posit.automata import _after, _lasso_mask
from posit.cycles import (accepting_lasso_from, nodes_reaching_accepting_cycle,
                          reachable_graph)
from posit.positionality import _return_word
from posit.fixtures import DPA_NAMES, load_dpa

from oracles import (brute_property1, brute_property2, brute_property3,
                     certify_witness, counter_buchi, lassos_up_to,
                     member_from, moves_of, perm_parity, perm_parity_marked,
                     random_dpa, random_lassos, ref_compare_lassos,
                     ref_compose, ref_monoid, ref_omega_accept,
                     ref_property1, ref_property2, ref_property3,
                     ref_return_word, ref_scan_property3, unfold,
                     unreduced_check, word_behavior, words_up_to)

POSITIONAL = ("buchi_a", "fin_a", "rabin", "ex3")

EXPECTED = {
    "buchi_a": None,
    "fin_a": None,
    "rabin": None,
    "ex3": None,
    "onea": (2, Witness2("", "a", LassoWord("", "b"))),
    "infab": (3, Witness3("", "a", "b")),
    "w2": (3, Witness3("", "ab", "ac")),
    "res": (1, Witness1("a", "b", LassoWord("", "b"), LassoWord("", "c"))),
}


def behaviours(monoid: PriorityMonoid):
    """The (f, g) pair of every element, decoded from its codes."""
    return [(tuple(c // monoid.base for c in key),
             tuple(c % monoid.base for c in key)) for key in monoid.codes]


class TestMonoid:
    def test_onea_monoid_has_two_elements(self):
        # only "contains an a" matters: every word maps 0 with minimum 1
        assert len(PriorityMonoid(load_dpa("onea")).codes) == 2

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_monoid_is_exactly_the_word_behaviours(self, name):
        a = load_dpa(name)
        monoid = PriorityMonoid(a)
        elements = behaviours(monoid)
        keys = set(elements)
        assert len(keys) == len(elements)
        # witnesses realise their element
        for i, x in enumerate(elements):
            assert word_behavior(a, monoid.witness(i)) == x
        # closed under composition and containing the letters
        for c in a.alphabet:
            assert word_behavior(a, c) in keys
        for x in elements:
            for y in elements:
                assert ref_compose(x, y) in keys
        # no behaviour of a short word is missing
        for word in words_up_to(a.alphabet, 4, min_len=1):
            assert word_behavior(a, word) in keys

    def test_witnesses_are_shortest_first(self):
        for name in DPA_NAMES:
            a = load_dpa(name)
            monoid = PriorityMonoid(a)
            for i, x in enumerate(behaviours(monoid)):
                witness = monoid.witness(i)
                for word in words_up_to(a.alphabet, len(witness) - 1, 1):
                    assert word_behavior(a, word) != x

    def test_cap_bounds_generation(self, monkeypatch):
        monkeypatch.setattr(positionality, "MONOID_CAP", 3)
        with pytest.raises(MonoidTooLarge,
                           match="priority monoid exceeds 3 elements"):
            PriorityMonoid(load_dpa("w2"))

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_cayley_table_and_masks(self, name):
        a = load_dpa(name)
        monoid = PriorityMonoid(a)
        elements = behaviours(monoid)
        ids = {x: i for i, x in enumerate(elements)}
        for i, x in enumerate(elements):
            for ci, c in enumerate(a.alphabet):
                extended = word_behavior(a, monoid.witness(i) + c)
                assert monoid.right[i][ci] == ids[extended]
            for p in range(a.n):
                assert monoid.target(i, p) == x[0][p]
                assert (bool(monoid.accepting[i] >> p & 1)
                        == ref_omega_accept(x, p))

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_matches_reference_monoid(self, name):
        a = load_dpa(name)
        monoid = PriorityMonoid(a)
        reference = ref_monoid(a)
        assert ([monoid.witness(i) for i in range(len(monoid.codes))]
                == [word for word, _x in reference])
        assert behaviours(monoid) == [x for _word, x in reference]


class TestOmegaAccept:
    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_agrees_with_membership_of_the_witness_loop(self, name):
        a = load_dpa(name)
        monoid = PriorityMonoid(a)
        for i, mask in enumerate(monoid.accepting):
            loop = LassoWord("", monoid.witness(i))
            for p in range(a.n):
                assert bool(mask >> p & 1) == member_from(a, p, loop)


class TestProperties:
    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_property1_matches_brute(self, name):
        a = load_dpa(name)
        report = check_property1(a)
        brute = brute_property1(a, lassos_up_to(a.alphabet, 2, 3))
        assert report.passed == (not brute)
        if not report.passed:
            assert certify_witness(a, report.witness)

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_property2_matches_brute(self, name):
        a = load_dpa(name)
        report = check_property2(a)
        brute = brute_property2(a, 2, 2, lassos_up_to(a.alphabet, 2, 2))
        assert report.passed == (not brute)
        if not report.passed:
            assert certify_witness(a, report.witness)

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_property3_matches_brute(self, name):
        a = load_dpa(name)
        report = check_property3(a)
        brute = brute_property3(a, 2, 2)
        assert report.passed == (not brute)
        if not report.passed:
            assert certify_witness(a, report.witness)

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_verdicts_and_witnesses(self, name):
        verdict = check_positional(load_dpa(name))
        if EXPECTED[name] is None:
            assert verdict.positional
            assert verdict.failed_property is None
            assert verdict.witness is None
        else:
            number, witness = EXPECTED[name]
            assert not verdict.positional
            assert verdict.failed_property == number
            assert verdict.witness == witness


class TestIndexedMonoid:
    """Property 1 over one residual sweep, properties 2 and 3 over the
    indexed monoid, against the plain per-pair and per-element loops."""

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_fixtures_match_reference(self, name):
        a = load_dpa(name)
        assert check_property1(a) == ref_property1(a)
        assert check_property2(a) == ref_property2(a)
        assert check_property3(a) == ref_property3(a)
        assert check_property3(a) == ref_scan_property3(a)

    def test_random_automata_match_reference(self):
        rng = random.Random(2)
        pairs = ((check_property1, ref_property1),
                 (check_property2, ref_property2),
                 (check_property3, ref_property3))
        refuted, unfolded = [0, 0, 0], [0, 0, 0]
        copies = random.Random(3)
        for draw in range(1000):
            a = random_dpa(rng)
            for k, (check, ref) in enumerate(pairs):
                report = check(a)
                assert report == ref(a)
                refuted[k] += not report.passed
            assert report == ref_scan_property3(a)
            if draw < 300:
                # the checks decide on the quotient and lift the witness,
                # the plain loops run on the two bisimilar copies
                b = unfold(a, 2, copies)
                for k, (check, ref) in enumerate(pairs):
                    report = check(b)
                    assert report == ref(b)
                    unfolded[k] += not report.passed
        # both outcomes occur often enough for the comparison to bite
        assert min(refuted) > 100 and max(refuted) < 900
        assert min(unfolded) > 30 and max(unfolded) < 270

    def test_one_monoid_per_check(self, monkeypatch):
        built = []

        class Counting(PriorityMonoid):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(positionality, "PriorityMonoid", Counting)
        # w2 passes property 2 and fails property 3, so both ran
        assert check_positional(load_dpa("w2")).failed_property == 3
        assert len(built) == 1

    def test_one_residual_sweep_per_check(self, monkeypatch):
        sweeps = []
        sweep = cycles._accepting_components

        def counting(g):
            sweeps.append(len(g.nodes))
            return sweep(g)

        monkeypatch.setattr(cycles, "_accepting_components", counting)
        # w2 passes properties 1 and 2, so both read the sweep
        a = load_dpa("w2")
        assert check_positional(a).failed_property == 3
        assert sweeps == [a.n ** 2]

    def test_perm_parity_6_is_positional(self):
        assert check_positional(perm_parity(6)).positional

    def test_perm_parity_7_is_positional(self):
        assert check_positional(perm_parity(7)).positional

    @pytest.mark.parametrize("n, elements", [(6, 723), (7, 5043)])
    def test_perm_parity_marked_is_positional(self, n, elements, monkeypatch):
        built = []

        class Counting(PriorityMonoid):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(len(self.codes))

        monkeypatch.setattr(positionality, "PriorityMonoid", Counting)
        # no state is bisimilar to another, so the whole monoid is closed
        assert check_positional(perm_parity_marked(n)).positional
        assert built == [elements]

    def test_cap_still_applies(self, monkeypatch):
        monkeypatch.setattr(positionality, "MONOID_CAP", 3)
        with pytest.raises(MonoidTooLarge):
            check_positional(load_dpa("w2"))


def _verdict(v: PositionalityVerdict):
    return (v.positional, v.failed_property,
            v.witness and v.witness.as_dict())


class TestQuotient:
    """Every check decides on the bisimulation quotient of the reachable
    states and lifts its witness to the input, against the three checks
    run with no state merged."""

    @pytest.mark.parametrize("name", DPA_NAMES)
    def test_fixtures_are_minimal_and_match_unreduced(self, name):
        a = load_dpa(name)
        states = sorted(reachable_states(a))
        assert positionality._quotient(a, states) == (a, dict(zip(states,
                                                                  states)))
        assert _verdict(check_positional(a)) == _verdict(unreduced_check(a))

    def test_random_draws_and_unfoldings_match_unreduced(self):
        rng = random.Random(29)
        reduced = refuted = 0
        for _ in range(3000):
            a = random_dpa(rng, max_states=5, max_priority=6)
            b = unfold(a, 2, rng)
            got, unfolded = check_positional(a), check_positional(b)
            assert _verdict(got) == _verdict(unreduced_check(a))
            assert _verdict(unfolded) == _verdict(unreduced_check(b))
            assert unfolded[:2] == got[:2]
            reduced += positionality._quotient(
                a, sorted(reachable_states(a)))[0] is not a
            refuted += not got.positional
        # draws with unreachable or bisimilar states, and both verdicts,
        # occur often enough for the comparison to bite
        assert reduced > 500 and 1000 < refuted < 2000

    @pytest.mark.parametrize("family, n", [(perm_parity, 3),
                                           (perm_parity, 8),
                                           (counter_buchi, 2),
                                           (counter_buchi, 512)])
    def test_families_collapse_to_one_state(self, family, n):
        a = family(n)
        quotient, block = positionality._quotient(a, list(range(n)))
        assert quotient.n == 1 and block == dict.fromkeys(range(n), 0)

    def test_member_from_a_state_is_member_from_its_block(self):
        rng = random.Random(30)
        compared = 0
        for _ in range(300):
            a = unfold(random_dpa(rng, max_states=4, max_priority=6),
                       rng.randint(2, 3), rng)
            states = sorted(reachable_states(a))
            quotient, block = positionality._quotient(a, states)
            for w in random_lassos(a.alphabet, 5, rng.randrange(1 << 30)):
                for p in states:
                    assert (member_from(a, p, w)
                            == member_from(quotient, block[p], w))
                    compared += 1
        assert compared > 5000

    def test_reducible_positive_builds_one_monoid(self, monkeypatch):
        built = []

        class Counting(PriorityMonoid):
            def __init__(self, a):
                built.append(a.n)
                super().__init__(a)

        monkeypatch.setattr(positionality, "PriorityMonoid", Counting)
        assert check_positional(perm_parity(5)).positional
        assert built == [1]

    @pytest.mark.parametrize("name, lassos", [("res", 2), ("onea", 1),
                                              ("w2", 0)],
                             ids=["property1", "property2", "property3"])
    def test_reducible_negative_sweeps_only_the_quotient(
            self, monkeypatch, name, lassos):
        graphs, sweeps, built = [], [], []
        graph, sweep = automata.residual_graph, cycles._accepting_components

        def counting_graph(a, roots):
            roots = list(roots)
            graphs.append((a.n, len(roots)))
            return graph(a, roots)

        def counting_sweep(g):
            sweeps.append(len(g.nodes))
            return sweep(g)

        class Counting(PriorityMonoid):
            def __init__(self, a):
                built.append(a.n)
                super().__init__(a)

        monkeypatch.setattr(automata, "residual_graph", counting_graph)
        monkeypatch.setattr(positionality, "residual_graph", counting_graph)
        monkeypatch.setattr(cycles, "_accepting_components", counting_sweep)
        monkeypatch.setattr(positionality, "PriorityMonoid", Counting)
        a = unfold(load_dpa(name), 2, random.Random(0))
        r, m = len(reachable_states(a)), load_dpa(name).n
        verdict = check_positional(a)
        # one sweep of the quotient's m^2 pairs, then one one-pair graph
        # on the input per lasso of the witness; property 1 fails before
        # the monoid is needed, and 2 and 3 build the quotient's alone
        assert m < r and graphs == [(m, m * m)] + [(a.n, 1)] * lassos
        assert len(sweeps) == len(graphs) and sweeps[0] == m * m
        assert max(sweeps[1:], default=0) < r * r
        assert built == ([] if name == "res" else [m])
        monkeypatch.undo()
        assert _verdict(verdict) == _verdict(unreduced_check(a))
        assert verdict.failed_property == EXPECTED[name][0]

    @staticmethod
    def chain(m):
        """States 0 to m - 1 in a row on letter a, priority 1, then state
        m - 1 and its twin m swap with priority 0: refinement tells one
        more state apart per round, m rounds of m + 1 states."""
        delta = [{"a": (q + 1, 1)} for q in range(m - 1)]
        delta += [{"a": (m, 0)}, {"a": (m - 1, 0)}]
        return posit.Dpa(posit.Alphabet("a"), [str(q) for q in range(m + 1)],
                         0, delta)

    def test_refinement_is_bounded_by_the_residual_cap(self, monkeypatch):
        a = self.chain(10)
        # the rounds key 110 states; the quotient has 100 pairs, a 121
        monkeypatch.setattr(automata, "RESIDUAL_CAP", 110)
        assert check_positional(a).positional
        monkeypatch.setattr(automata, "RESIDUAL_CAP", 109)
        with pytest.raises(ResidualGraphTooLarge,
                           match="^residual graph exceeds 109 nodes$"):
            check_positional(a)

    def test_positive_past_the_input_monoid_cap(self, monkeypatch):
        a = unfold(load_dpa("w2"), 2, random.Random(0))
        expected = unreduced_check(a)
        monkeypatch.setattr(positionality, "MONOID_CAP", 3)
        # the one-state quotient's monoid holds a, b and c
        assert check_positional(perm_parity(5)).positional
        # w2's monoid has 8 elements, that of its unfolding 25
        monkeypatch.setattr(positionality, "MONOID_CAP", 8)
        with pytest.raises(MonoidTooLarge):
            unreduced_check(a)
        assert check_property3(a) == (False, expected.witness)
        assert _verdict(check_positional(a)) == _verdict(expected)
        assert expected.failed_property == 3

    @staticmethod
    def merged(a, block, reps):
        """A quotient of `a` by `block` whose block b has the row of state
        reps[b], whether or not the states of a block are bisimilar."""
        return posit.Dpa(a.alphabet, [str(b) for b in range(len(reps))],
                         block[a.initial],
                         [{c: (block[t], pri) for c, (t, pri)
                           in a.delta[r].items()} for r in reps])

    def test_quotient_and_input_disagreeing_is_an_error(self, monkeypatch):
        block = {0: 0, 1: 1, 2: 0}
        for a, reps, error, message in (
                # states 0 and 2 merged with the row of 2: the quotient
                # fails property 1 on blocks 0 and 1, but L(0) is inside
                # L(1) on the input, so no lasso lifts
                (posit.Dpa(posit.Alphabet("ab"), "012", 0,
                           [{"a": (1, 2), "b": (2, 2)},
                            {"a": (2, 3), "b": (0, 4)},
                            {"a": (1, 3), "b": (1, 0)}]),
                 (2, 1), AssertionError,
                 r"^the quotient of Dpa\(3 states over 'ab'\) fails "
                 r"property 1, but L\(0\) is included in L\(1\)$"),
                # ex3's states 0 and 2 merged with the row of 0: the
                # quotient's property 3 witness fails its re-check
                (load_dpa("ex3"), (0, 1), WitnessRecheckFailed,
                 r"^Witness3\(u='', v='ab', vp='ba'\): membership of "
                 r":abba is False, the witness needs True$")):
            assert check_positional(a).positional
            monkeypatch.setattr(positionality, "_quotient",
                                lambda a, states: (self.merged(a, block, reps),
                                                   block))
            with pytest.raises(error, match=message):
                check_positional(a)
            monkeypatch.undo()


class TestProperty3Closure:
    """Property 3 by closing each R_p under its generators, against the
    scan of every pair of monoid elements it replaces."""

    def test_larger_random_automata_match_the_pair_scan(self, monkeypatch):
        monkeypatch.setattr(positionality, "MONOID_CAP", 3000)
        rng = random.Random(28)
        compared = refuted = 0
        while compared < 300:
            a = random_dpa(rng, max_states=6, max_priority=6)
            if a.n < 3:
                continue
            try:
                report = check_property3(a)
            except MonoidTooLarge:
                continue
            assert report == ref_scan_property3(a)
            compared += 1
            refuted += not report.passed
        # both outcomes occur often enough for the comparison to bite
        assert 100 < refuted < 250

    def test_first_unclosed_state_need_not_be_the_lowest(self):
        a = posit.parse_dpa("dpa v1\nalphabet a b\nstates 3\ninitial 0\n"
                            "trans 0 a 2 1\ntrans 0 b 0 2\n"
                            "trans 1 a 1 2\ntrans 1 b 1 3\n"
                            "trans 2 a 2 1\ntrans 2 b 1 1\n")
        states = sorted(reachable_states(a))
        assert states == [0, 1, 2]
        assert positionality._first_unclosed(PriorityMonoid(a), states) == 2
        report = check_property3(a)
        assert report == ref_scan_property3(a)
        assert report.witness == Witness3("a", "a", "b")

    @staticmethod
    def rotation(n):
        """One letter rotating n states, priority 1 out of state 0 and 3
        elsewhere: a^k for k < 2n are distinct, the last of witness
        length 2n - 1, and every R_p is the whole monoid."""
        return posit.Dpa(posit.Alphabet("a"), [str(q) for q in range(n)], 0,
                         [{"a": ((q + 1) % n, 3 if q else 1)}
                          for q in range(n)])

    @staticmethod
    def lock(key):
        """State q < len(key) reads key[q] on to q + 1, priority 2 (1 on
        the way round to 0); any other letter falls into the accepting
        sink.  R_p holds only powers of key rotated by p, so its first
        generator's witness is len(key) letters long."""
        n = len(key)
        delta = [{c: ((q + 1) % n, 1 if q == n - 1 else 2) if c == key[q]
                  else (n, 0) for c in "ab"} for q in range(n)]
        delta.append({"a": (n, 0), "b": (n, 0)})
        return posit.Dpa(posit.Alphabet("ab"),
                         [str(q) for q in range(n + 1)], 0, delta)

    @pytest.mark.parametrize("kind", ["rotation", "lock"])
    def test_witnesses_longer_than_the_recursion_limit(self, kind):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        room = 30       # frames left above this test's own
        if kind == "rotation":
            a = self.rotation(150)
            assert len(PriorityMonoid(a).witness(298)) == 299 > room
        else:
            rng = random.Random(0)
            a = self.lock("".join(rng.choice("ab") for _ in range(40)))
            monoid = PriorityMonoid(a)
            first = min(i for i, mask in enumerate(monoid.accepting)
                        if not mask & 1)
            assert len(monoid.witness(first)) == 40 > room
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + room)
        try:
            report = check_property3(a)
        finally:
            sys.setrecursionlimit(limit)
        assert report == ref_scan_property3(a)
        assert report.passed


class TestReturnWord:
    def test_matches_shortest_first_enumeration(self):
        rng = random.Random(5)
        automata = ([load_dpa(name) for name in DPA_NAMES]
                    + [random_dpa(rng, max_states=4) for _ in range(500)])
        missing = 0
        for a in automata:
            got = _return_word(a, reachable_states(a))
            assert got == ref_return_word(a)
            missing += got is None
        # automata without a return word occur too
        assert 10 < missing < 250


class TestWitnessRecheck:
    @pytest.mark.parametrize("name, check", [("res", check_property1),
                                             ("onea", check_property2),
                                             ("infab", check_property3)])
    def test_lying_membership_is_caught(self, monkeypatch, name, check):
        monkeypatch.setattr(positionality, "member",
                            lambda a, w: not member(a, w))
        with pytest.raises(WitnessRecheckFailed):
            check(load_dpa(name))

    def test_runs_under_optimize(self):
        code = "\n".join((
            "import posit.positionality as P",
            "from posit.fixtures import load_dpa",
            "P.member = lambda a, w: False",
            "try:",
            "    P.check_positional(load_dpa('onea'))",
            "except P.WitnessRecheckFailed:",
            "    print('raised', __debug__)",
        ))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(posit.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, encoding="utf-8", check=True)
        assert out.stdout == "raised False\n"


class TestCompare:
    def test_incomparable_with_prefixes(self):
        a = load_dpa("res")
        c = compare_lassos(a, LassoWord("", "b"), LassoWord("", "c"))
        assert c.incomparable
        assert (c.u, c.up) == ("a", "b")

    def test_strict_order(self):
        a = load_dpa("buchi_a")
        c = compare_lassos(a, LassoWord("", "b"), LassoWord("", "a"))
        assert c.left_leq and not c.right_leq

    def test_equivalent(self):
        a = load_dpa("buchi_a")
        c = compare_lassos(a, LassoWord("", "a"), LassoWord("b", "ab"))
        assert c.equivalent

    @pytest.mark.parametrize("w, wp", [
        (LassoWord("", "z"), LassoWord("", "a")),
        (LassoWord("a", "b"), LassoWord("z", "a")),
        (LassoWord("a", "bz"), LassoWord("", "y")),
    ])
    def test_unknown_letter_raises_unknown_letter(self, w, wp):
        # the walk reads transition rows directly, where a stray letter
        # would be a KeyError; the first one, prefix first, is named, as
        # the reference's `member_from` names it
        a = load_dpa("res")
        for compare in (compare_lassos, ref_compare_lassos):
            with pytest.raises(UnknownLetter,
                               match="^letter 'z' not in alphabet$"):
                compare(a, w, wp)


class TestCompareMatchesReference:
    """`compare_lassos` walks each lasso once for all automaton states;
    the reference runs `member_from` from each reachable state."""

    def test_fixtures_and_random_draws(self):
        rng = random.Random(12)
        automata = ([(load_dpa(name), 12) for name in DPA_NAMES]
                    + [(random_dpa(rng, max_states=4), 4)
                       for _ in range(1000)])
        kinds = Counter()
        for seed, (a, size) in enumerate(automata):
            pool = random_lassos(a.alphabet, size, seed, 2, 3)
            for w, wp in permutations(pool, 2):
                c = compare_lassos(a, w, wp)
                assert c == ref_compare_lassos(a, w, wp), (a.delta, w, wp)
                kinds["incomparable" if c.incomparable else
                      "equivalent" if c.equivalent else "strict"] += 1
        assert kinds["incomparable"] >= 50, kinds
        assert kinds["equivalent"] >= 1000 and kinds["strict"] >= 1000, kinds

    def test_mask_bits_are_memberships_from_every_state(self):
        rng = random.Random(13)
        unreachable = 0
        for seed in range(1000):
            a = random_dpa(rng, max_states=4)
            unreachable += len(reachable_states(a)) < a.n
            for w in random_lassos(a.alphabet, 3, seed):
                mask = _lasso_mask(a, w)
                assert mask >> a.n == 0
                assert [bool(mask >> r & 1) for r in range(a.n)] == \
                    [member_from(a, r, w) for r in range(a.n)], (a.delta, w)
                assert member(a, w) == member_from(a, a.initial, w)
        assert unreachable >= 100, unreachable


class TestOrderLaws:
    @pytest.mark.parametrize("name", POSITIONAL)
    def test_no_violations_on_positional_fixtures(self, name):
        report = verify_order_laws(load_dpa(name), samples=100, seed=3)
        assert report.passed
        assert report.samples == 100

    def test_requires_positional(self):
        with pytest.raises(PreconditionViolated):
            verify_order_laws(load_dpa("onea"), samples=5, seed=0)

    @pytest.mark.parametrize("name", ("w2", "onea", "res", "infab"))
    def test_violations_match_pairwise_comparisons(self, name, monkeypatch):
        # forced past the precondition, the laws fail on non-positional
        # conditions; the report must list what compare_lassos finds
        monkeypatch.setattr(positionality, "check_positional",
                            lambda a: PositionalityVerdict(True))
        a = load_dpa(name)
        report = verify_order_laws(a, samples=300, seed=4)
        expected = order_law_violations(a, samples=300, seed=4)
        assert expected
        assert report.violations == expected


def order_law_violations(a, samples, seed):
    """`verify_order_laws`' violations, with one `compare_lassos` call
    per comparison, on the same draws."""
    rng = random.Random(seed)
    letters = list(a.alphabet)

    def rand_word(lo, hi):
        return "".join(rng.choice(letters)
                       for _ in range(rng.randint(lo, hi)))

    out = []
    for i in range(samples):
        v, vp = rand_word(1, 3), rand_word(1, 3)
        w = LassoWord(rand_word(0, 2), rand_word(1, 3))
        vw, vv, vpvp = prepend(v, w), LassoWord("", v), LassoWord("", vp)
        joint = LassoWord("", v + vp)
        pool = [vw, vv, vpvp, joint, w]
        for x, y in combinations(pool, 2):
            if compare_lassos(a, x, y).incomparable:
                out.append("draw %d: %s and %s incomparable" % (i, x, y))
        for x, y, z in ((vw, vv, w), (joint, vv, vpvp)):
            if not (compare_lassos(a, x, y).left_leq
                    or compare_lassos(a, x, z).left_leq):
                out.append("draw %d: %s above both %s and %s"
                           % (i, x, y, z))
    return tuple(out)


class TestPinnedLassos:
    """The exact lassos of the residual sweep on seeded random DPAs,
    pinned by a sha256: each pair's `accepting_lasso_from` on the part
    of the full residual graph it reaches, the set of pairs reaching an
    accepting cycle, each pair's `residual_included` and the
    `check_positional` witness.  The oracles' property checks spell
    their lassos with the reference sweep, the one the package's is
    checked against, so this pins the spelling itself."""

    def test_random_dpas(self):
        rng = random.Random(16)
        digest = hashlib.sha256()
        for _ in range(160):
            a = random_dpa(rng, max_states=5, max_priority=6)
            pairs = [(p, q) for p in range(a.n) for q in range(a.n)]
            graph = residual_graph(a, pairs)
            verdict = check_positional(a)
            digest.update(repr((
                [accepting_lasso_from(
                    reachable_graph([p * a.n + q], moves_of(graph)))
                 for p, q in pairs],
                sorted(divmod(node, a.n) for node
                       in nodes_reaching_accepting_cycle(graph)),
                [residual_included(a, p, q) for p, q in pairs],
                verdict.failed_property,
                verdict.witness and verdict.witness.as_dict(),
            )).encode())
        assert digest.hexdigest() == (
            "29bc2178c574d33d239a6d2d3e73bc61"
            "55c47b529c52372a7debc5228c098c75")


class TestWitnessLassosAreInclusions:
    """The lassos of property 1 and 2 witnesses are the counterexamples
    `residual_included` gives, as `posit include` prints them, for the
    states the witness's prefixes lead to."""

    def test_fixtures_and_random_dpas(self):
        rng = random.Random(28)
        automata = ([load_dpa(name) for name in DPA_NAMES]
                    + [random_dpa(rng, max_states=5, max_priority=6)
                       for _ in range(200)])
        seen = Counter()
        for a in automata:
            found = check_property1(a).witness
            if found is not None:
                p = _after(a, a.initial, found.u)
                q = _after(a, a.initial, found.up)
                assert found.w == residual_included(a, p, q), a.delta
                assert found.wp == residual_included(a, q, p), a.delta
                seen[1] += 1
            found = check_property2(a).witness
            if found is not None:
                p = _after(a, a.initial, found.u)
                q = _after(a, p, found.v)
                assert found.w == residual_included(a, q, p), a.delta
                seen[2] += 1
        assert seen[1] >= 10 and seen[2] >= 10, seen


class TestWitnessSerialization:
    @pytest.mark.parametrize("name", ("onea", "infab", "w2", "res"))
    def test_round_trip(self, name):
        a = load_dpa(name)
        witness = check_positional(a).witness
        again = witness_from_dict(witness.as_dict(), a.alphabet)
        assert again == witness

    def test_rejects_garbage(self):
        a = load_dpa("onea")
        with pytest.raises(InvalidWitness):
            witness_from_dict({"property": 9}, a.alphabet)
        with pytest.raises(InvalidWitness):
            witness_from_dict({"property": 2, "u": "", "v": 3, "w": ":b"},
                              a.alphabet)
        with pytest.raises(InvalidWitness):
            witness_from_dict(["not", "a", "dict"], a.alphabet)

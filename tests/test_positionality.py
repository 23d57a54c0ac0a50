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
from posit import (InvalidSetting, InvalidWitness, LassoWord,
                   MonoidTooLarge, PositionalityVerdict, PreconditionViolated,
                   PriorityMonoid, UnknownLetter, Witness1, Witness2,
                   Witness3, WitnessRecheckFailed, check_positional,
                   check_property1, check_property2, check_property3,
                   compare_lassos, member, prepend, reachable_states,
                   residual_graph, residual_included, verify_order_laws,
                   witness_from_dict)
from posit import positionality
from posit.automata import _lasso_mask
from posit.cycles import accepting_lasso_from, nodes_reaching_accepting_cycle
from posit.positionality import _return_word
from posit.fixtures import DPA_NAMES, load_dpa

from oracles import (brute_property1, brute_property2, brute_property3,
                     certify_witness, lassos_up_to, member_from,
                     perm_parity, random_dpa, random_lassos,
                     ref_compare_lassos, ref_compose,
                     ref_monoid, ref_omega_accept, ref_property1,
                     ref_property2, ref_property3, ref_return_word,
                     word_behavior, words_up_to)

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

    def test_cap_from_environment(self, monkeypatch):
        monkeypatch.setenv("POSIT_MONOID_CAP", "3")
        with pytest.raises(MonoidTooLarge):
            PriorityMonoid(load_dpa("w2"))
        # ASCII digits only, as in files, and a cap of at least one
        for text, message in (
                ("0", "at least 1, not 0"), ("-1", "at least 1, not -1"),
                ("1_000", "an integer, not '1_000'"),
                (" 7", "an integer, not ' 7'"),
                ("\uff11\uff10", "an integer, not '\uff11\uff10'"),
                ("+5", "an integer, not '+5'"), ("", "an integer, not ''")):
            monkeypatch.setenv("POSIT_MONOID_CAP", text)
            with pytest.raises(InvalidSetting) as info:
                PriorityMonoid(load_dpa("w2"))
            assert str(info.value) == "POSIT_MONOID_CAP must be " + message

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

    def test_random_automata_match_reference(self):
        rng = random.Random(2)
        pairs = ((check_property1, ref_property1),
                 (check_property2, ref_property2),
                 (check_property3, ref_property3))
        refuted = [0, 0, 0]
        for _ in range(1000):
            a = random_dpa(rng)
            for k, (check, ref) in enumerate(pairs):
                report = check(a)
                assert report == ref(a)
                refuted[k] += not report.passed
        # both outcomes occur often enough for the comparison to bite
        assert min(refuted) > 100 and max(refuted) < 900

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
        sweep = positionality.nodes_reaching_accepting_cycle

        def counting(g):
            sweeps.append(len(g))
            return sweep(g)

        monkeypatch.setattr(positionality, "nodes_reaching_accepting_cycle",
                            counting)
        # w2 passes properties 1 and 2, so both read the sweep
        assert check_positional(load_dpa("w2")).failed_property == 3
        assert len(sweeps) == 1

    def test_perm_parity_6_is_positional(self):
        assert check_positional(perm_parity(6)).positional

    def test_cap_still_applies(self, monkeypatch):
        monkeypatch.setenv("POSIT_MONOID_CAP", "3")
        with pytest.raises(MonoidTooLarge):
            check_positional(load_dpa("w2"))


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
    pinned by a sha256: each pair's `accepting_lasso_from` on the full
    residual graph, the set of pairs reaching an accepting cycle, each
    pair's `residual_included` and the `check_positional` witness.  The
    oracles' property checks call the same sweep, so only this notices
    a change in how a lasso is spelled."""

    def test_random_dpas(self):
        rng = random.Random(16)
        digest = hashlib.sha256()
        for _ in range(160):
            a = random_dpa(rng, max_states=5, max_priority=6)
            pairs = [(p, q) for p in range(a.n) for q in range(a.n)]
            graph = residual_graph(a, pairs)
            verdict = check_positional(a)
            digest.update(repr((
                [accepting_lasso_from(graph, pair) for pair in pairs],
                sorted(nodes_reaching_accepting_cycle(graph)),
                [residual_included(a, p, q) for p, q in pairs],
                verdict.failed_property,
                verdict.witness and verdict.witness.as_dict(),
            )).encode())
        assert digest.hexdigest() == (
            "29bc2178c574d33d239a6d2d3e73bc61"
            "55c47b529c52372a7debc5228c098c75")


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

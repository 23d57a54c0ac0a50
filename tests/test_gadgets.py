import json
import random

import pytest

from posit import (ADAM, EVE, Game, InvalidWitness, LassoWord, UnknownLetter,
                   Witness1, Witness2, Witness3, certify_nonpositional,
                   check_positional, find_positional, format_arena,
                   gadget_from_witness, parse_arena, parse_dpa, random_arena,
                   solve_game, verify_strategy, witness_from_dict)
from posit.cli import main
from posit.fixtures import load_dpa

from oracles import random_dpa

# Draw 1754 of random_dpa(random.Random(0), max_states=4): state 0 has no
# return word, so property 1's witness has an empty access word.
DRAW_1754 = """dpa v1
alphabet a b
states 4
initial 0
trans 0 a 3 3
trans 0 b 2 3
trans 1 a 3 3
trans 1 b 3 1
trans 2 a 2 1
trans 2 b 3 2
trans 3 a 3 2
trans 3 b 1 1
"""
WITNESS_1754 = {"property": 1, "u": "", "up": "b", "w": "a:a", "wp": "b:a"}


class TestShapes:
    def test_choice_between_two_exits(self):
        dpa = load_dpa("res")
        witness = Witness1("a", "b", LassoWord("", "b"), LassoWord("", "c"))
        arena, starts = gadget_from_witness(witness, dpa.alphabet)
        assert starts == ["s"]
        assert arena.owners["s"] == ADAM
        assert arena.owners["e"] == EVE
        assert set(arena.out_edges("s")) == {("a", "e"), ("b", "e")}
        # hub commits to one of the two loops
        dsts = {dst for _letter, dst in arena.out_edges("e")}
        assert len(dsts) == 2
        for dst in dsts:
            (edge,) = arena.out_edges(dst)
            assert edge[1] == dst

    def test_loop_or_leave(self):
        dpa = load_dpa("onea")
        witness = Witness2("", "a", LassoWord("", "b"))
        arena, starts = gadget_from_witness(witness, dpa.alphabet)
        assert starts == ["e"]
        assert arena.owners["e"] == EVE
        assert ("a", "e") in arena.out_edges("e")
        exits = [dst for _l, dst in arena.out_edges("e") if dst != "e"]
        assert len(exits) == 1
        assert arena.out_edges(exits[0]) == [("b", exits[0])]

    def test_nonempty_access_adds_adam_start(self):
        dpa = load_dpa("onea")
        witness = Witness2("b", "a", LassoWord("", "b"))
        arena, starts = gadget_from_witness(witness, dpa.alphabet)
        assert starts == ["s"]
        assert arena.owners["s"] == ADAM
        assert arena.out_edges("s") == [("b", "e")]

    def test_exit_with_prefix(self):
        dpa = load_dpa("onea")
        witness = Witness2("", "a", LassoWord("b", "ab"))
        arena, _starts = gadget_from_witness(witness, dpa.alphabet)
        # one entry thread into a two-vertex cycle spelling (ab)^omega
        exits = [dst for _l, dst in arena.out_edges("e") if dst != "e"]
        (entry,) = exits
        cycle = dict(arena.out_edges(entry))
        assert list(cycle) == ["a"]
        back = arena.out_edges(cycle["a"])
        assert back == [("b", entry)]

    def test_two_loops_through_hub(self):
        dpa = load_dpa("w2")
        witness = Witness3("", "ab", "ac")
        arena, starts = gadget_from_witness(witness, dpa.alphabet)
        assert starts == ["e"]
        out = arena.out_edges("e")
        assert [letter for letter, _ in out] == ["a", "a"]
        returns = sorted(arena.out_edges(dst)[0][0] for _l, dst in out)
        assert returns == ["b", "c"]

    @pytest.mark.parametrize("u, up, word", [("", "b", "b"), ("a", "", "a")],
                             ids=["u_empty", "up_empty"])
    def test_empty_access_word_makes_hub_a_start(self, u, up, word):
        dpa = load_dpa("res")
        w = LassoWord("", "b")
        arena, starts = gadget_from_witness(Witness1(u, up, w, w),
                                            dpa.alphabet)
        assert starts == ["s", "e"]
        assert arena.owners["s"] == ADAM
        assert arena.owners["e"] == EVE
        assert arena.out_edges("s") == [(word, "e")]

    def test_round_trip_through_text_format(self):
        dpa = load_dpa("w2")
        witness = Witness3("", "ab", "ac")
        arena, _starts = gadget_from_witness(witness, dpa.alphabet)
        again = parse_arena(format_arena(arena))
        assert again.owners == arena.owners
        assert again.edges == arena.edges


class TestRejects:
    def test_empty_loop_words(self):
        alphabet = load_dpa("onea").alphabet
        with pytest.raises(InvalidWitness):
            gadget_from_witness(Witness2("", "", LassoWord("", "b")), alphabet)
        with pytest.raises(InvalidWitness):
            gadget_from_witness(Witness3("", "a", ""), alphabet)

    def test_unknown_witness_object(self):
        alphabet = load_dpa("onea").alphabet
        with pytest.raises(InvalidWitness):
            gadget_from_witness("garbage", alphabet)

    def test_foreign_letters(self):
        alphabet = load_dpa("onea").alphabet
        with pytest.raises(UnknownLetter):
            gadget_from_witness(Witness3("", "z", "a"), alphabet)


class TestCertify:
    @pytest.mark.parametrize("name", ["onea", "infab", "w2", "res"])
    def test_computed_witnesses_certify(self, name):
        dpa = load_dpa(name)
        verdict = check_positional(dpa)
        assert not verdict.positional
        assert certify_nonpositional(dpa, verdict.witness)

    def test_gadget_eve_cannot_win(self):
        # every play spells b^omega, which needs a's to be accepted
        dpa = load_dpa("buchi_a")
        witness = Witness2("", "b", LassoWord("", "b"))
        assert not certify_nonpositional(dpa, witness)

    def test_gadget_won_positionally(self):
        # the a loop alone wins, so the gadget separates nothing
        dpa = load_dpa("buchi_a")
        witness = Witness3("", "a", "b")
        assert not certify_nonpositional(dpa, witness)


class TestTwoStarts:
    """A witness with an empty access word certifies through the hub as a
    second start: each start alone has a positional win, both do not."""

    def test_game_facts(self):
        a = parse_dpa(DRAW_1754)
        witness = witness_from_dict(WITNESS_1754, a.alphabet)
        assert witness == check_positional(a).witness
        arena, starts = gadget_from_witness(witness, a.alphabet)
        assert starts == ["s", "e"]
        game = Game(arena, a)
        assert solve_game(game).winning_region >= {"s", "e"}
        assert find_positional(game, ["s"]) is not None
        assert find_positional(game, ["e"]) is not None
        assert find_positional(game, ["s", "e"]) is None
        assert certify_nonpositional(a, witness)

    def test_cli_certifies(self, capsys, tmp_path):
        path = tmp_path / "draw1754.dpa"
        path.write_text(DRAW_1754, encoding="utf-8")
        rc = main(["gadget", str(path), json.dumps(WITNESS_1754)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "start: s,e", "eve wins: true", "positional win: false",
            "certified: true"]


@pytest.fixture(scope="module")
def verdicts():
    rng = random.Random(0)
    out = []
    for _ in range(3000):
        a = random_dpa(rng, max_states=4)
        out.append((a, check_positional(a)))
    return out


class TestRandomAutomata:
    def test_every_negative_verdict_certifies(self, verdicts):
        negatives = [(a, v.witness) for a, v in verdicts if not v.positional]
        for a, witness in negatives:
            assert certify_nonpositional(a, witness), witness
        # the two-start gadget is exercised too
        assert any(isinstance(w, Witness1) and not (w.u and w.up)
                   for _a, w in negatives)
        assert 500 < len(negatives) < 2500

    def test_one_positional_strategy_wins_the_whole_region(self, verdicts):
        # positionality is uniform: one positional strategy wins from all
        # of Eve's winning vertices at once, on Eve-only and mixed arenas
        pairs = 0
        for i, (a, v) in enumerate(verdicts):
            if not v.positional:
                continue
            for k, eve_fraction in enumerate((1.0, 0.5, 0.5)):
                arena = random_arena(3 + k, 3, eve_fraction, a.alphabet,
                                     seed=3 * i + k)
                game = Game(arena, a)
                region = solve_game(game).winning_region
                if region:
                    pairs += 1
                    found = find_positional(game, sorted(region))
                    assert verify_strategy(game, found, sorted(region))
        assert pairs > 1000
